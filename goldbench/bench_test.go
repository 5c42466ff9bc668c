package main

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// TestBenchmarkJSONMatchesDefinitions keeps the repository's
// BENCHMARK.json in step with the metrics and workloads this program
// reports.
func TestBenchmarkJSONMatchesDefinitions(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command   []string `json:"command"`
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []e2eMetric   `json:"end_to_end"`
		PerLayer []layerMetric `json:"per_layer"`
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range raw {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if want := []string{"command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"}; !reflect.DeepEqual(keys, want) {
		t.Errorf("BENCHMARK.json keys %v, want %v", keys, want)
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec.Command, []string{"bash", "goldbench/run.sh"}) || !reflect.DeepEqual(spec.Paths, []string{"goldbench"}) {
		t.Errorf("command %v / paths %v", spec.Command, spec.Paths)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program runs %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if got, ok := workloads[w.Name]; !ok || got.why != w.Why {
			t.Errorf("workload %q: why %q, program says %q", w.Name, w.Why, got.why)
		}
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json %+v\n code %+v", spec.EndToEnd, endToEnd)
	}
	var layers []layerMetric
	for _, m := range perLayer {
		layers = append(layers, layerMetric{Name: m.Name, Unit: m.Unit, Better: m.Better})
	}
	if !reflect.DeepEqual(spec.PerLayer, layers) {
		t.Errorf("per_layer differs:\n json %+v\n code %+v", spec.PerLayer, layers)
	}
}

// TestFeedKeysKeepTruthAligned shows why makeFeed rewrites the keys:
// with the generator's random keys, table.ReadCSV reorders clusters and
// the ground truth no longer describes the parsed cells.
func TestFeedKeysKeepTruthAligned(t *testing.T) {
	gen, err := generate("address", 7, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w := csv.NewWriter(&buf)
	w.Write(append([]string{"key", "source"}, gen.Data.Attrs...))
	for _, cl := range gen.Data.Clusters {
		for _, r := range cl.Records {
			w.Write(append([]string{cl.Key, r.Source}, r.Values...))
		}
	}
	w.Flush()
	raw := feed{name: "raw", column: "Address", csv: buf.Bytes(), gen: gen}
	if _, err := parseFeed(raw); err == nil {
		t.Fatal("random generator keys parsed as aligned; the check cannot catch misalignment")
	}
	f, err := makeFeed("address", gen)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := parseFeed(f); err != nil {
		t.Fatalf("rekeyed feed: %v", err)
	}
}

// TestMirrorCatchesDivergence applies one decision to the mirror that
// the "server" never saw: the export comparison must notice.
func TestMirrorCatchesDivergence(t *testing.T) {
	gen, err := generate("journal", 3, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	f, err := makeFeed("journal", gen)
	if err != nil {
		t.Fatal(err)
	}
	m, err := newMirror(f)
	if err != nil {
		t.Fatal(err)
	}
	before, err := m.recordsCSV()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range m.store.Candidates() {
		if c.SiteCount() > 0 {
			m.store.Apply(c)
			break
		}
	}
	after, err := m.recordsCSV()
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(before, after) {
		t.Fatal("applying a candidate left the mirror's export unchanged")
	}
}

// TestSmoke runs every workload at tiny size against a goldrecd built
// from this checkout, untraced and traced, and requires every check to
// pass and every metric to be reported.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds goldrecd")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "goldrecd")
	build := exec.Command("go", "build", "-o", bin, "./cmd/goldrecd")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building goldrecd: %v\n%s", err, out)
	}
	for name := range workloads {
		for _, trace := range []string{"0", "1"} {
			var stdout, stderr bytes.Buffer
			code := run([]string{"-bin", bin, "-work", dir, "-smoke", "--workload", name, "--seed", "3", "--seconds", "1", "--trace", trace}, &stdout, &stderr)
			if code != 0 {
				t.Fatalf("%s trace=%s: exit %d\n%s", name, trace, code, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res finalLine
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%s: last line: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%s: correct=%v attempted=%d failed=%d\n%s", name, trace, res.Correct, res.Attempted, res.Failed, stdout.String())
			}
			want := len(endToEnd)
			if trace == "1" {
				want = len(perLayer)
			}
			if len(res.Metrics) != want {
				t.Errorf("%s trace=%s: %d metrics, want %d", name, trace, len(res.Metrics), want)
			}
		}
	}
}
