package main

import (
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/goldrec/goldrec/table"
)

const smokeCSV = `key,Name,Address
C1,Mary Lee,"9 St, 02141 Wisconsin"
C1,M. Lee,"9th St, 02141 WI"
C1,"Lee, Mary","9 Street, 02141 WI"
C2,"Smith, James","5th St, 22701 California"
C2,James Smith,"3rd E Ave, 33990 California"
C2,J. Smith,"3 E Avenue, 33990 CA"
`

func writeSmokeCSV(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "in.csv")
	if err := os.WriteFile(path, []byte(smokeCSV), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunHelp(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-h"}, strings.NewReader(""), &out); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("run(-h) = %v, want flag.ErrHelp", err)
	}
}

func TestRunMissingArgs(t *testing.T) {
	var out strings.Builder
	if err := run(nil, strings.NewReader(""), &out); err == nil {
		t.Fatal("run with no args should fail")
	}
	if err := run([]string{"-in", "x.csv"}, strings.NewReader(""), &out); err == nil {
		t.Fatal("run without a clustering mode should fail")
	}
	// Parse errors are already reported by the FlagSet; run marks them
	// so main does not print them twice.
	if err := run([]string{"-bogus"}, strings.NewReader(""), &out); !errors.Is(err, errUsage) {
		t.Fatalf("run(-bogus) = %v, want errUsage", err)
	}
}

func TestExportReviewRefusesMultipleColumns(t *testing.T) {
	in := writeSmokeCSV(t)
	review := filepath.Join(filepath.Dir(in), "review.json")
	var out strings.Builder
	err := run([]string{"-in", in, "-key", "key", "-export-review", review},
		strings.NewReader(""), &out)
	if err == nil || !strings.Contains(err.Error(), "one column") {
		t.Fatalf("multi-column export-review = %v, want one-column error", err)
	}
	if _, statErr := os.Stat(review); !os.IsNotExist(statErr) {
		t.Error("refused export still created the review file")
	}
}

// TestRunEndToEnd drives the auto-approve pipeline over a tiny dataset
// and checks both output files.
func TestRunEndToEnd(t *testing.T) {
	in := writeSmokeCSV(t)
	dir := filepath.Dir(in)
	golden := filepath.Join(dir, "golden.csv")
	std := filepath.Join(dir, "std.csv")

	var out strings.Builder
	err := run([]string{
		"-in", in, "-key", "key", "-col", "Name",
		"-yes", "-budget", "5",
		"-golden", golden, "-out", std,
	}, strings.NewReader(""), &out)
	if err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, out.String())
	}
	for _, want := range []string{"loaded 2 clusters", "reviewed", "golden records written", "standardized records written"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}

	goldenData, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(goldenData)), "\n")
	if len(lines) != 3 {
		t.Fatalf("golden csv has %d lines, want header + 2 clusters:\n%s", len(lines), goldenData)
	}
	if !strings.HasPrefix(lines[0], "key,Name,Address") {
		t.Errorf("golden header = %q", lines[0])
	}

	stdData, err := os.ReadFile(std)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(strings.Split(strings.TrimSpace(string(stdData)), "\n")); got != 7 {
		t.Fatalf("standardized csv has %d lines, want header + 6 records", got)
	}
}

// TestRunResolveOutputReadsBack: resolve mode has no input key column,
// yet its -out and -golden files must carry a named one, distinct from
// every attribute, so they feed back into goldrec with -key.
func TestRunResolveOutputReadsBack(t *testing.T) {
	for _, tc := range []struct{ attrs, key string }{
		{"isbn,title,author", "cluster"},
		{"isbn,cluster,author", "_cluster"},
	} {
		dir := t.TempDir()
		in := filepath.Join(dir, "flat.csv")
		flat := tc.attrs + `
111,Data Cleaning,Mary Lee
111,Data Cleaning,M. Lee
222,Entity Resolution,James Smith
222,Entity Resolution,J. Smith
`
		if err := os.WriteFile(in, []byte(flat), 0o644); err != nil {
			t.Fatal(err)
		}
		std := filepath.Join(dir, "std.csv")
		golden := filepath.Join(dir, "golden.csv")
		var out strings.Builder
		err := run([]string{
			"-in", in, "-resolve-key", "isbn", "-col", "author",
			"-yes", "-budget", "3", "-out", std, "-golden", golden,
		}, strings.NewReader(""), &out)
		if err != nil {
			t.Fatalf("run: %v\noutput:\n%s", err, out.String())
		}
		for path, records := range map[string]int{std: 4, golden: 2} {
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			ds, err := table.ReadCSV(f, path, tc.key, "")
			f.Close()
			if err != nil {
				t.Fatalf("reading %s back with key %q: %v", filepath.Base(path), tc.key, err)
			}
			if len(ds.Clusters) != 2 || ds.NumRecords() != records {
				t.Errorf("%s: %d clusters, %d records, want 2 clusters, %d records",
					filepath.Base(path), len(ds.Clusters), ds.NumRecords(), records)
			}
			if got := strings.Join(ds.Attrs, ","); got != tc.attrs {
				t.Errorf("%s attrs = %s, want %s", filepath.Base(path), got, tc.attrs)
			}
		}
		out.Reset()
		if err := run([]string{"-in", std, "-key", tc.key, "-col", "author", "-yes", "-budget", "1"},
			strings.NewReader(""), &out); err != nil {
			t.Fatalf("feeding -out back with -key %s: %v", tc.key, err)
		}
	}
}

// TestRunInteractiveEOF checks the interactive path: EOF on stdin
// rejects every group, so no cells change.
func TestRunInteractiveEOF(t *testing.T) {
	in := writeSmokeCSV(t)
	var out strings.Builder
	err := run([]string{"-in", in, "-key", "key", "-col", "Name", "-budget", "2"},
		strings.NewReader(""), &out)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out.String(), "applied 0") {
		t.Errorf("EOF stdin should reject everything:\n%s", out.String())
	}
}

// TestRunReviewRoundTrip exercises -export-review and -apply-review.
func TestRunReviewRoundTrip(t *testing.T) {
	in := writeSmokeCSV(t)
	review := filepath.Join(filepath.Dir(in), "review.json")
	fixed := filepath.Join(filepath.Dir(in), "fixed.csv")

	var out strings.Builder
	if err := run([]string{"-in", in, "-key", "key", "-col", "Name", "-export-review", review},
		strings.NewReader(""), &out); err != nil {
		t.Fatalf("export: %v", err)
	}
	data, err := os.ReadFile(review)
	if err != nil {
		t.Fatal(err)
	}
	// Approve the first group in place.
	filled := strings.Replace(string(data), `"decision": ""`, `"decision": "approve"`, 1)
	if filled == string(data) {
		t.Fatalf("no decision slot found in review file:\n%s", data)
	}
	if err := os.WriteFile(review, []byte(filled), 0o644); err != nil {
		t.Fatal(err)
	}

	out.Reset()
	if err := run([]string{"-in", in, "-key", "key", "-col", "Name", "-apply-review", review, "-out", fixed},
		strings.NewReader(""), &out); err != nil {
		t.Fatalf("apply: %v", err)
	}
	if !strings.Contains(out.String(), "applied 1 approved groups") {
		t.Errorf("apply output:\n%s", out.String())
	}
	if _, err := os.Stat(fixed); err != nil {
		t.Errorf("standardized output missing: %v", err)
	}
}

// TestRunApplyReviewBudgetIndependent: the apply run regenerates the
// export at the file's recorded size, so it must work without
// repeating the export run's -budget flag (the file carries an export
// token that any other regeneration size would fail).
func TestRunApplyReviewBudgetIndependent(t *testing.T) {
	in := writeSmokeCSV(t)
	review := filepath.Join(filepath.Dir(in), "review.json")

	var out strings.Builder
	if err := run([]string{"-in", in, "-key", "key", "-col", "Name", "-budget", "1", "-export-review", review},
		strings.NewReader(""), &out); err != nil {
		t.Fatalf("export: %v", err)
	}
	data, err := os.ReadFile(review)
	if err != nil {
		t.Fatal(err)
	}
	filled := strings.Replace(string(data), `"decision": ""`, `"decision": "approve"`, 1)
	if err := os.WriteFile(review, []byte(filled), 0o644); err != nil {
		t.Fatal(err)
	}

	// Apply with the default -budget (not 1): must still match.
	out.Reset()
	if err := run([]string{"-in", in, "-key", "key", "-col", "Name", "-apply-review", review},
		strings.NewReader(""), &out); err != nil {
		t.Fatalf("apply without -budget: %v", err)
	}
	if !strings.Contains(out.String(), "applied 1 approved groups") {
		t.Errorf("apply output:\n%s", out.String())
	}
}
