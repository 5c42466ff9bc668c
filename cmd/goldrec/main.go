// Command goldrec runs the full golden-record pipeline on a CSV of
// clustered records: standardize variant values column by column with
// interactive (or auto-approved) group verification, then emit golden
// records via majority-consensus truth discovery.
//
// The input CSV must have a header; the -key column identifies clusters
// (the output of an upstream entity-resolution step). Unclustered CSVs
// can be clustered on the fly with -resolve-key (exact key equality) or
// -resolve-match (Jaccard similarity join); their -out and -golden files
// carry the resolved cluster ids in a "cluster" key column (prefixed
// with "_" while an attribute has that name), so they read back with
// -key cluster.
//
//	goldrec -in clustered.csv -key isbn -col author_list -budget 50
//	goldrec -in clustered.csv -key ein -col address -yes -golden golden.csv
//	goldrec -in flat.csv -resolve-match title -col title
//
// Non-interactive review workflow: export the pending groups as JSON,
// have the expert fill in each group's decision, then apply:
//
//	goldrec -in c.csv -key k -col v -export-review review.json
//	goldrec -in c.csv -key k -col v -apply-review review.json -out fixed.csv
//
// To inspect a column's largest groups without applying anything, export
// them and read the JSON: each group lists its program, structure and
// member pairs, largest first.
//
//	goldrec -in c.csv -key k -col v -budget 20 -export-review groups.json
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"github.com/goldrec/goldrec"
	"github.com/goldrec/goldrec/table"
)

// errUsage marks errors the FlagSet has already reported to the user;
// main exits without printing them a second time.
var errUsage = errors.New("usage")

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		if errors.Is(err, flag.ErrHelp) || errors.Is(err, errUsage) {
			os.Exit(2)
		}
		fmt.Fprintln(os.Stderr, "goldrec:", err)
		os.Exit(1)
	}
}

// run is the testable CLI body: it parses args with its own FlagSet and
// reads interactive decisions from stdin.
func run(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("goldrec", flag.ContinueOnError)
	var (
		in           = fs.String("in", "", "input CSV path (required)")
		keyCol       = fs.String("key", "", "clustering key column name (for pre-clustered input)")
		srcCol       = fs.String("source", "", "optional source column name")
		resolveKey   = fs.String("resolve-key", "", "cluster unclustered input by exact equality of this attribute")
		resolveMatch = fs.String("resolve-match", "", "cluster unclustered input by similarity of this attribute")
		threshold    = fs.Float64("threshold", 0.6, "similarity threshold for -resolve-match")
		cols         = fs.String("col", "", "comma-separated attribute(s) to standardize (default: all)")
		budget       = fs.Int("budget", 100, "maximum groups to review per column (0 = unlimited)")
		yes          = fs.Bool("yes", false, "auto-approve every group forward (non-interactive demo mode)")
		exportReview = fs.String("export-review", "", "write pending groups as a JSON review file and exit")
		applyReview  = fs.String("apply-review", "", "apply a filled-in JSON review file instead of interactive review")
		out          = fs.String("out", "", "write the standardized records CSV here")
		golden       = fs.String("golden", "", "write the golden records CSV here")
		preview      = fs.Int("preview", 5, "member pairs shown per group in interactive mode")
	)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return err
		}
		return fmt.Errorf("%w: %v", errUsage, err)
	}
	if *in == "" || (*keyCol == "" && *resolveKey == "" && *resolveMatch == "") {
		fs.Usage()
		return fmt.Errorf("-in and one of -key/-resolve-key/-resolve-match are required")
	}

	ds, err := loadDataset(stdout, *in, *keyCol, *srcCol, *resolveKey, *resolveMatch, *threshold)
	if err != nil {
		return err
	}
	// Output files lead with the cluster key column; resolved input has
	// no key column of its own, so its resolved cluster ids get one.
	outKey := *keyCol
	if outKey == "" {
		outKey = "cluster"
		for slices.Contains(ds.Attrs, outKey) {
			outKey = "_" + outKey
		}
	}
	fmt.Fprintf(stdout, "loaded %d clusters, %d records, attributes: %s\n",
		len(ds.Clusters), ds.NumRecords(), strings.Join(ds.Attrs, ", "))

	cons, err := goldrec.New(ds)
	if err != nil {
		return err
	}

	attrs := ds.Attrs
	if *cols != "" {
		attrs = strings.Split(*cols, ",")
	}
	if *exportReview != "" && len(attrs) > 1 {
		// One review file per run: a second column would silently
		// overwrite the first column's export.
		return fmt.Errorf("-export-review handles one column per file; pick one with -col (have %d: %s)",
			len(attrs), strings.Join(attrs, ", "))
	}
	br := bufio.NewReader(stdin)
	for _, attr := range attrs {
		attr = strings.TrimSpace(attr)
		sess, err := cons.Column(attr)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "\n--- column %q: %d candidate replacements ---\n", attr, sess.Stats().Candidates)
		switch {
		case *exportReview != "":
			f, err := os.Create(*exportReview)
			if err != nil {
				return err
			}
			rf, err := sess.ExportReview(f, *budget)
			f.Close()
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "exported %d groups to %s; fill in decisions and re-run with -apply-review\n",
				len(rf.Groups), *exportReview)
			continue
		case *applyReview != "":
			// Regenerate the original export, then apply the reviewer's
			// decisions (ids address the regenerated export order). The
			// file's own "exported" count sizes the regeneration —
			// ApplyReview validates the export token, so re-exporting at
			// any other size (say, this run's -budget) would reject the
			// file as stale.
			raw, err := os.ReadFile(*applyReview)
			if err != nil {
				return err
			}
			var rf goldrec.ReviewFile
			if err := json.Unmarshal(raw, &rf); err != nil {
				return fmt.Errorf("reading review file %s: %w", *applyReview, err)
			}
			var scratch strings.Builder
			if _, err := sess.ExportReview(&scratch, rf.Exported); err != nil {
				return err
			}
			stats, err := sess.ApplyReview(bytes.NewReader(raw))
			if err != nil {
				return err
			}
			applied := 0
			for _, s := range stats {
				if s.CellsChanged > 0 {
					applied++
				}
			}
			fmt.Fprintf(stdout, "applied %d approved groups from %s\n", applied, *applyReview)
			continue
		}
		reviewed := sess.RunBudget(*budget, func(g *goldrec.Group) (bool, goldrec.Direction) {
			if *yes {
				return true, goldrec.Forward
			}
			return ask(br, stdout, g, *preview)
		})
		st := sess.Stats()
		fmt.Fprintf(stdout, "reviewed %d groups, applied %d, changed %d cells\n",
			reviewed, st.GroupsApplied, st.CellsChanged)
	}

	if *out != "" {
		if err := writeCSV(*out, ds, outKey); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "standardized records written to %s\n", *out)
	}
	if *golden != "" {
		records := cons.GoldenRecords()
		gds := &table.Dataset{Name: "golden", Attrs: ds.Attrs}
		for ci, rec := range records {
			gds.Clusters = append(gds.Clusters, table.Cluster{
				Key:     ds.Clusters[ci].Key,
				Records: []table.Record{rec},
			})
		}
		if err := writeCSV(*golden, gds, outKey); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "golden records written to %s\n", *golden)
	}
	return nil
}

// ask shows a group and reads the human's decision: y (forward),
// b (backward), anything else rejects.
func ask(stdin *bufio.Reader, stdout io.Writer, g *goldrec.Group, preview int) (bool, goldrec.Direction) {
	fmt.Fprintf(stdout, "\ngroup of %d replacement(s), %d site(s)\n", g.Size(), g.TotalSites())
	fmt.Fprintf(stdout, "transformation: %s\n", g.Program)
	for i, p := range g.Pairs {
		if i >= preview {
			fmt.Fprintf(stdout, "  ... and %d more\n", len(g.Pairs)-preview)
			break
		}
		fmt.Fprintf(stdout, "  %q → %q  (%d sites)\n", p.LHS, p.RHS, p.Sites)
	}
	fmt.Fprint(stdout, "apply? [y = left→right, b = right→left, N = reject] ")
	line, err := stdin.ReadString('\n')
	if err != nil {
		return false, goldrec.Forward
	}
	switch strings.ToLower(strings.TrimSpace(line)) {
	case "y", "yes":
		return true, goldrec.Forward
	case "b", "back", "backward":
		return true, goldrec.Backward
	}
	return false, goldrec.Forward
}

// loadDataset reads the input either pre-clustered (keyCol) or flat with
// on-the-fly entity resolution.
func loadDataset(stdout io.Writer, path, keyCol, srcCol, resolveKey, resolveMatch string, threshold float64) (*table.Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if keyCol != "" {
		return table.ReadCSV(f, path, keyCol, srcCol)
	}
	attrs, records, err := table.ReadFlatCSV(f, path, srcCol)
	if err != nil {
		return nil, err
	}
	ds, err := goldrec.Resolve(path, attrs, records, goldrec.ResolveOptions{
		KeyAttr:   resolveKey,
		MatchAttr: resolveMatch,
		Threshold: threshold,
	})
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "resolved %d records into %d clusters\n", len(records), len(ds.Clusters))
	return ds, nil
}

func writeCSV(path string, ds *table.Dataset, keyCol string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return table.WriteCSV(f, ds, keyCol)
}
