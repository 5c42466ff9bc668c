// Command promlint validates Prometheus text exposition read from
// stdin (or the files named as arguments) against the same parser the
// repo's golden tests use: metric and label syntax, escape sequences,
// HELP/TYPE placement, histogram bucket ordering and cumulativity.
//
//	curl -fsS localhost:6060/metrics/prometheus | promlint
//	curl -fsS localhost:6060/metrics/prometheus | \
//	    promlint -require goldrec_http_requests_total,goldrec_http_request_seconds
//
// With -require, the named metric families (comma-separated) must each
// emit at least one sample across the inputs, and a histogram family at
// least one observation (some series with _count > 0; a counter or
// gauge at 0 still counts) — a well-formed exposition that silently
// lost a family, or never fed a histogram, fails the lint, which is
// exactly the regression a syntax check cannot see.
//
// Exits 0 and prints the sample count on success; exits 1 with the
// first violation otherwise. CI pipes the live daemon's exposition
// through it so a malformed or gutted metric fails the build, not the
// scrape.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"github.com/goldrec/goldrec/internal/obs"
)

func main() {
	require := flag.String("require", "", "comma-separated metric families that must appear with at least one sample (histograms: one observation)")
	flag.Parse()

	var required []string
	for _, f := range strings.Split(*require, ",") {
		if f = strings.TrimSpace(f); f != "" {
			required = append(required, f)
		}
	}

	// Families are unioned across inputs: a family may legitimately
	// live in one file of several.
	seen := make(map[string]bool)
	if flag.NArg() == 0 {
		lint("stdin", os.Stdin, seen)
	} else {
		for _, path := range flag.Args() {
			f, err := os.Open(path)
			if err != nil {
				fmt.Fprintln(os.Stderr, "promlint:", err)
				os.Exit(1)
			}
			lint(path, f, seen)
			f.Close()
		}
	}

	var missing []string
	for _, fam := range required {
		if !seen[fam] {
			missing = append(missing, fam)
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		fmt.Fprintf(os.Stderr, "promlint: missing required families: %s\n", strings.Join(missing, ", "))
		os.Exit(1)
	}
}

func lint(name string, r io.Reader, seen map[string]bool) {
	n, families, err := obs.ParseExpositionFamilies(r)
	if err != nil {
		fmt.Fprintf(os.Stderr, "promlint: %s: %v\n", name, err)
		os.Exit(1)
	}
	for fam := range families {
		seen[fam] = true
	}
	fmt.Printf("%s: %d samples OK\n", name, n)
}
