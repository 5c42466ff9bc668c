// Package wrangler is the Trifacta-style baseline of Section 8.1: a
// small data-wrangling rule language with regex-based replacement (the
// paper's skilled user wrote 30-40 lines of wrangler code per dataset in
// one hour), a parser, and an engine that applies a script to a column
// globally.
//
// The language supports the Trifacta character-class macros the paper's
// sample rules use ({alpha}, {digit}, {any}, {upper}, {lower}) plus
// lowercase/uppercase/trim operations:
//
//	replace on: `\(({alpha}|\s)+\)` with: ``
//	replace on: `^({alpha}+), ({alpha}+)$` with: `$2 $1`
//	trim
package wrangler

import (
	"fmt"
	"regexp"
	"strings"

	"github.com/goldrec/goldrec/table"
)

// Op is one wrangling operation.
type Op interface {
	// Apply transforms one cell value.
	Apply(string) string
	String() string
}

// ReplaceOp is a global regex replacement.
type ReplaceOp struct {
	On      *regexp.Regexp
	With    string
	rawOn   string
	rawWith string
}

// Apply implements Op.
func (r ReplaceOp) Apply(s string) string { return r.On.ReplaceAllString(s, r.With) }

func (r ReplaceOp) String() string {
	return fmt.Sprintf("replace on: `%s` with: `%s`", r.rawOn, r.rawWith)
}

// LowercaseOp folds the value to lower case.
type LowercaseOp struct{}

// Apply implements Op.
func (LowercaseOp) Apply(s string) string { return strings.ToLower(s) }
func (LowercaseOp) String() string        { return "lowercase" }

// UppercaseOp folds the value to upper case.
type UppercaseOp struct{}

// Apply implements Op.
func (UppercaseOp) Apply(s string) string { return strings.ToUpper(s) }
func (UppercaseOp) String() string        { return "uppercase" }

// TrimOp trims whitespace and collapses internal runs to single blanks.
type TrimOp struct{}

// Apply implements Op.
func (TrimOp) Apply(s string) string { return strings.Join(strings.Fields(s), " ") }
func (TrimOp) String() string        { return "trim" }

// Script is a parsed rule script.
type Script struct {
	Ops []Op
}

// macros translate Trifacta-style character classes to Go regexp.
var macros = strings.NewReplacer(
	"{alpha}", "[A-Za-z]",
	"{digit}", "[0-9]",
	"{any}", ".",
	"{upper}", "[A-Z]",
	"{lower}", "[a-z]",
)

// groupRef rewrites $1 → ${1} so that replacements like "$2 $3. $1"
// behave as the Trifacta user expects.
var groupRef = regexp.MustCompile(`\$([0-9]+)`)

// Parse reads a script: one operation per line, empty lines and #
// comments ignored.
func Parse(src string) (*Script, error) {
	sc := &Script{}
	for ln, line := range strings.Split(src, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		op, err := parseLine(line)
		if err != nil {
			return nil, fmt.Errorf("wrangler: line %d: %w", ln+1, err)
		}
		sc.Ops = append(sc.Ops, op)
	}
	return sc, nil
}

func parseLine(line string) (Op, error) {
	lower := strings.ToLower(line)
	switch {
	case lower == "lowercase":
		return LowercaseOp{}, nil
	case lower == "uppercase":
		return UppercaseOp{}, nil
	case lower == "trim":
		return TrimOp{}, nil
	case strings.HasPrefix(lower, "replace"):
		return parseReplace(line)
	}
	return nil, fmt.Errorf("unknown operation %q", line)
}

func parseReplace(line string) (Op, error) {
	on, err := field(line, "on:")
	if err != nil {
		return nil, err
	}
	with, err := field(line, "with:")
	if err != nil {
		return nil, err
	}
	pat := macros.Replace(on)
	re, err := regexp.Compile(pat)
	if err != nil {
		return nil, fmt.Errorf("pattern %q: %w", on, err)
	}
	return ReplaceOp{
		On:      re,
		With:    groupRef.ReplaceAllString(with, "${$1}"),
		rawOn:   on,
		rawWith: with,
	}, nil
}

// field extracts the backquoted argument following a keyword.
func field(line, kw string) (string, error) {
	i := strings.Index(line, kw)
	if i < 0 {
		return "", fmt.Errorf("missing %q", kw)
	}
	rest := line[i+len(kw):]
	j := strings.IndexByte(rest, '`')
	if j < 0 {
		return "", fmt.Errorf("missing opening backquote after %q", kw)
	}
	rest = rest[j+1:]
	k := strings.IndexByte(rest, '`')
	if k < 0 {
		return "", fmt.Errorf("missing closing backquote after %q", kw)
	}
	return rest[:k], nil
}

// Apply runs the script over every cell of the column and returns the
// number of cells whose value changed.
func (sc *Script) Apply(ds *table.Dataset, col int) int {
	changed := 0
	for ci := range ds.Clusters {
		for ri := range ds.Clusters[ci].Records {
			cell := table.Cell{Cluster: ci, Row: ri, Col: col}
			v := ds.Value(cell)
			if out := sc.ApplyValue(v); out != v {
				ds.SetValue(cell, out)
				changed++
			}
		}
	}
	return changed
}

// ApplyValue runs the script's operations, in order, over one value.
func (sc *Script) ApplyValue(v string) string {
	for _, op := range sc.Ops {
		v = op.Apply(v)
	}
	return v
}
