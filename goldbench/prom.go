package main

import (
	"bufio"
	"bytes"
	"strconv"
	"strings"
)

// promSample holds one scrape of /metrics/prometheus: every sample
// line, keyed by its series name with the label set as rendered
// ("name{labels}").
type promSample map[string]float64

func parseProm(data []byte) promSample {
	out := promSample{}
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out
}

// sub returns p - base for every series in p (counters and histogram
// sums/counts difference cleanly; gauges keep their latest value minus
// the earlier one).
func (p promSample) sub(base promSample) promSample {
	out := promSample{}
	for k, v := range p {
		out[k] = v - base[k]
	}
	return out
}

// get returns the series with the given name and label set (labels as
// rendered between the braces, "" for none).
func (p promSample) get(name, labels string) float64 {
	if labels == "" {
		return p[name]
	}
	return p[name+"{"+labels+"}"]
}

// sumPrefix adds every series of the metric name whatever its labels.
func (p promSample) sumPrefix(name string) float64 {
	total := 0.0
	for k, v := range p {
		if k == name || strings.HasPrefix(k, name+"{") {
			total += v
		}
	}
	return total
}

// histMeanMS is the mean observation of a seconds histogram series in
// milliseconds, 0 when the series saw no observations.
func (p promSample) histMeanMS(name, labels string) float64 {
	n := p.get(name+"_count", labels)
	if n <= 0 {
		return 0
	}
	return 1000 * p.get(name+"_sum", labels) / n
}
