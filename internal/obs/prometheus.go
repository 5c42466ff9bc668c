package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// WritePrometheus renders the registry in the Prometheus text
// exposition format (version 0.0.4): families sorted by name, children
// sorted by label values, HELP and TYPE lines per family, label values
// escaped per the spec. Histograms expose cumulative _bucket series
// with an explicit +Inf bucket, plus _sum and _count. A nil registry
// writes nothing.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	bw := bufio.NewWriter(w)
	samples := r.Snapshot()
	lastFamily := ""
	for _, s := range samples {
		if s.Name != lastFamily {
			lastFamily = s.Name
			fmt.Fprintf(bw, "# HELP %s %s\n", s.Name, escapeHelp(r.help(s.Name)))
			fmt.Fprintf(bw, "# TYPE %s %s\n", s.Name, s.Kind)
		}
		switch s.Kind {
		case KindCounter:
			fmt.Fprintf(bw, "%s%s %d\n", s.Name, renderLabels(s.Labels, s.Values, "", 0), s.Count)
		case KindGauge:
			fmt.Fprintf(bw, "%s%s %s\n", s.Name, renderLabels(s.Labels, s.Values, "", 0), formatFloat(s.Value))
		case KindHistogram:
			var cum int64
			for i, n := range s.Buckets {
				cum += n
				fmt.Fprintf(bw, "%s_bucket%s %d\n",
					s.Name, renderLabels(s.Labels, s.Values, "le", s.BucketBounds[i]), cum)
			}
			fmt.Fprintf(bw, "%s_bucket%s %d\n",
				s.Name, renderLabels(s.Labels, s.Values, "le", math.Inf(1)), s.Count)
			fmt.Fprintf(bw, "%s_sum%s %s\n", s.Name, renderLabels(s.Labels, s.Values, "", 0), formatFloat(s.Sum))
			fmt.Fprintf(bw, "%s_count%s %d\n", s.Name, renderLabels(s.Labels, s.Values, "", 0), s.Count)
		}
	}
	return bw.Flush()
}

// help returns a family's help text.
func (r *Registry) help(name string) string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if v, ok := r.families[name]; ok {
		return v.help
	}
	return ""
}

// renderLabels renders a label set, appending the le bucket label when
// leName is non-empty.
func renderLabels(names, values []string, leName string, le float64) string {
	if len(names) == 0 && leName == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(values[i]))
		b.WriteByte('"')
	}
	if leName != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(leName)
		b.WriteString(`="`)
		b.WriteString(formatFloat(le))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// formatFloat renders a float the way Prometheus clients do: shortest
// representation, +Inf spelled out.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeLabelValue escapes backslash, double-quote and newline, per the
// exposition format spec.
func escapeLabelValue(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	var b strings.Builder
	for _, r := range s {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// escapeHelp escapes backslash and newline (help text is not quoted, so
// double quotes pass through).
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// ParseExpositionFamilies validates a Prometheus text exposition:
// metric and label syntax, quoting and escaping, one HELP/TYPE pair per
// family appearing before its samples, parseable sample values,
// cumulative monotone histogram buckets ending at +Inf, and histogram
// _count agreeing with the +Inf bucket. It returns the number of
// samples parsed and the set of metric families that emitted at least
// one sample, keyed by family name (histogram _bucket/_sum/_count fold
// into their base family). A histogram family counts only once some
// series has observed a value (_count > 0): a registered histogram
// emits its zero _count and _bucket lines before any observation,
// while a counter or gauge at 0 is a real reading. CI pipes goldrecd's
// /metrics/prometheus through it (via cmd/promlint, whose -require
// asserts the families a scrape config depends on), and the golden-file
// tests run it over checked-in output, so a formatting regression fails
// both.
func ParseExpositionFamilies(r io.Reader) (samples int, families map[string]bool, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	typeOf := make(map[string]string) // family → TYPE
	helpSeen := make(map[string]bool)
	seenSample := make(map[string]bool) // family → sample already emitted
	families = make(map[string]bool)
	// histogram bookkeeping, keyed by family + base label key
	type histState struct {
		lastLe  float64
		lastCum int64
		infSeen bool
		infCum  int64
		count   int64
		hasCnt  bool
	}
	hists := make(map[string]*histState)
	line := 0
	for sc.Scan() {
		line++
		text := sc.Text()
		if strings.TrimSpace(text) == "" {
			continue
		}
		if strings.HasPrefix(text, "#") {
			fields := strings.SplitN(text, " ", 4)
			if len(fields) < 3 || (fields[1] != "HELP" && fields[1] != "TYPE") {
				// Plain comment: allowed, ignored.
				continue
			}
			name := fields[2]
			if err := checkMetricName(name); err != nil {
				return samples, families, fmt.Errorf("line %d: %s %v", line, fields[1], err)
			}
			switch fields[1] {
			case "HELP":
				if helpSeen[name] {
					return samples, families, fmt.Errorf("line %d: duplicate HELP for %s", line, name)
				}
				helpSeen[name] = true
			case "TYPE":
				if len(fields) != 4 {
					return samples, families, fmt.Errorf("line %d: TYPE needs a type", line)
				}
				typ := fields[3]
				switch typ {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					return samples, families, fmt.Errorf("line %d: unknown TYPE %q for %s", line, typ, name)
				}
				if _, dup := typeOf[name]; dup {
					return samples, families, fmt.Errorf("line %d: duplicate TYPE for %s", line, name)
				}
				if seenSample[name] {
					return samples, families, fmt.Errorf("line %d: TYPE for %s after its samples", line, name)
				}
				typeOf[name] = typ
			}
			continue
		}
		name, labels, value, err := parseSampleLine(text)
		if err != nil {
			return samples, families, fmt.Errorf("line %d: %w", line, err)
		}
		samples++
		family := name
		var suffix string
		for _, sfx := range []string{"_bucket", "_sum", "_count"} {
			base := strings.TrimSuffix(name, sfx)
			if base != name && typeOf[base] == "histogram" {
				family, suffix = base, sfx
				break
			}
		}
		typ, ok := typeOf[family]
		if !ok {
			return samples, families, fmt.Errorf("line %d: sample %s before any TYPE", line, name)
		}
		if !helpSeen[family] {
			return samples, families, fmt.Errorf("line %d: sample %s without HELP", line, name)
		}
		seenSample[family] = true
		if typ != "histogram" {
			families[family] = true
			continue
		}
		base := make([]string, 0, len(labels))
		le := ""
		for _, kv := range labels {
			if kv[0] == "le" {
				le = kv[1]
				continue
			}
			base = append(base, kv[0]+"="+kv[1])
		}
		key := family + "\xff" + strings.Join(base, "\xff")
		st := hists[key]
		if st == nil {
			st = &histState{lastLe: math.Inf(-1)}
			hists[key] = st
		}
		switch suffix {
		case "_bucket":
			if le == "" {
				return samples, families, fmt.Errorf("line %d: histogram bucket without le label", line)
			}
			ub := math.Inf(1)
			if le != "+Inf" {
				ub, err = strconv.ParseFloat(le, 64)
				if err != nil {
					return samples, families, fmt.Errorf("line %d: bad le %q: %v", line, le, err)
				}
			}
			cum := int64(value)
			if ub <= st.lastLe {
				return samples, families, fmt.Errorf("line %d: histogram %s buckets out of order (le %v after %v)", line, family, ub, st.lastLe)
			}
			if cum < st.lastCum {
				return samples, families, fmt.Errorf("line %d: histogram %s bucket counts not cumulative", line, family)
			}
			st.lastLe, st.lastCum = ub, cum
			if math.IsInf(ub, 1) {
				st.infSeen = true
				st.infCum = cum
			}
		case "_count":
			st.count = int64(value)
			st.hasCnt = true
		}
	}
	if err := sc.Err(); err != nil {
		return samples, families, err
	}
	for key, st := range hists {
		family := key[:strings.IndexByte(key, '\xff')]
		if !st.infSeen {
			return samples, families, fmt.Errorf("histogram %s: no +Inf bucket", family)
		}
		if st.hasCnt && st.count != st.infCum {
			return samples, families, fmt.Errorf("histogram %s: _count %d != +Inf bucket %d", family, st.count, st.infCum)
		}
		if st.infCum > 0 { // equal to _count, checked above
			families[family] = true
		}
	}
	return samples, families, nil
}

// parseSampleLine parses `name{label="value",...} value` (the labels
// are optional), validating escapes.
func parseSampleLine(s string) (name string, labels [][2]string, value float64, err error) {
	i := 0
	for i < len(s) && s[i] != '{' && s[i] != ' ' {
		i++
	}
	name = s[:i]
	if err := checkMetricName(name); err != nil {
		return "", nil, 0, err
	}
	if i < len(s) && s[i] == '{' {
		i++ // consume '{'
		for {
			for i < len(s) && s[i] == ',' {
				i++
			}
			if i < len(s) && s[i] == '}' {
				i++
				break
			}
			j := i
			for j < len(s) && s[j] != '=' {
				j++
			}
			if j == len(s) {
				return "", nil, 0, fmt.Errorf("unterminated label in %q", s)
			}
			lname := s[i:j]
			if lname != "le" {
				if err := checkLabelName(lname); err != nil {
					return "", nil, 0, err
				}
			}
			j++ // '='
			if j >= len(s) || s[j] != '"' {
				return "", nil, 0, fmt.Errorf("unquoted label value in %q", s)
			}
			j++
			var val strings.Builder
			for j < len(s) && s[j] != '"' {
				if s[j] == '\\' {
					j++
					if j >= len(s) {
						return "", nil, 0, fmt.Errorf("dangling escape in %q", s)
					}
					switch s[j] {
					case '\\':
						val.WriteByte('\\')
					case '"':
						val.WriteByte('"')
					case 'n':
						val.WriteByte('\n')
					default:
						return "", nil, 0, fmt.Errorf("bad escape \\%c in %q", s[j], s)
					}
					j++
					continue
				}
				val.WriteByte(s[j])
				j++
			}
			if j >= len(s) {
				return "", nil, 0, fmt.Errorf("unterminated label value in %q", s)
			}
			j++ // closing '"'
			labels = append(labels, [2]string{lname, val.String()})
			i = j
		}
	}
	rest := strings.TrimSpace(s[i:])
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 { // optional timestamp
		return "", nil, 0, fmt.Errorf("bad sample line %q", s)
	}
	switch fields[0] {
	case "+Inf":
		value = math.Inf(1)
	case "-Inf":
		value = math.Inf(-1)
	case "NaN":
		value = math.NaN()
	default:
		value, err = strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return "", nil, 0, fmt.Errorf("bad sample value in %q: %v", s, err)
		}
	}
	return name, labels, value, nil
}
