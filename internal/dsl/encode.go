package dsl

import (
	"fmt"
	"strconv"
	"strings"
)

// EncodingVersion is the version prefix of the canonical program
// serialization. The payload after the prefix is exactly Program.Key's
// grammar, which has been the cross-graph identity of programs since
// the first engine — so version g1 costs nothing to produce and every
// durable key already in flight parses. A future grammar change bumps
// the prefix; ParseProgram rejects versions it does not know instead of
// misreading them.
const EncodingVersion = "g1"

// EncodeProgram returns the canonical, versioned serialization of a
// program: "g1:" followed by the program's key. Encoding is total —
// every constructible program encodes — and ParseProgram inverts it
// exactly, so encode→parse→encode is the identity on encoder output.
func EncodeProgram(p Program) string {
	return EncodingVersion + ":" + p.Key()
}

// ParseProgram parses a canonical serialization produced by
// EncodeProgram (or any string in the g1 grammar) back into a Program.
// It never panics; malformed input returns an error. The parse is
// canonicalizing: numeric and string-escape spellings are normalized,
// so re-encoding a parsed program always yields a fixed point.
func ParseProgram(s string) (Program, error) {
	payload, ok := strings.CutPrefix(s, EncodingVersion+":")
	if !ok {
		if v, _, found := strings.Cut(s, ":"); found {
			return nil, fmt.Errorf("dsl: unsupported program encoding version %q", v)
		}
		return nil, fmt.Errorf("dsl: program encoding missing version prefix")
	}
	if payload == "" {
		return Program{}, nil
	}
	pr := &parser{s: payload}
	var p Program
	for {
		f, err := pr.parseFunc()
		if err != nil {
			return nil, err
		}
		p = append(p, f)
		if pr.done() {
			return p, nil
		}
		if err := pr.expect('|'); err != nil {
			return nil, err
		}
	}
}

// parser is a cursor over the g1 payload (the part after "g1:").
type parser struct {
	s string
	i int
}

func (p *parser) done() bool { return p.i >= len(p.s) }

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("dsl: parse error at byte %d: %s", p.i, fmt.Sprintf(format, args...))
}

func (p *parser) expect(c byte) error {
	if p.done() || p.s[p.i] != c {
		return p.errf("expected %q", string(c))
	}
	p.i++
	return nil
}

// parseFunc parses one string function:
//
//	C<quoted>           ConstantStr
//	S(<pos>,<pos>)      SubStr
//	P<sig><int>         Prefix
//	F<sig><int>         Suffix
func (p *parser) parseFunc() (Func, error) {
	if p.done() {
		return nil, p.errf("expected a function")
	}
	c := p.s[p.i]
	p.i++
	switch c {
	case 'C':
		s, err := p.parseQuoted()
		if err != nil {
			return nil, err
		}
		return ConstantStr{S: s}, nil
	case 'S':
		if err := p.expect('('); err != nil {
			return nil, err
		}
		l, err := p.parsePos()
		if err != nil {
			return nil, err
		}
		if err := p.expect(','); err != nil {
			return nil, err
		}
		r, err := p.parsePos()
		if err != nil {
			return nil, err
		}
		if err := p.expect(')'); err != nil {
			return nil, err
		}
		return SubStr{L: l, R: r}, nil
	case 'P':
		t, k, err := p.parseTermK()
		if err != nil {
			return nil, err
		}
		return Prefix{Term: t, K: k}, nil
	case 'F':
		t, k, err := p.parseTermK()
		if err != nil {
			return nil, err
		}
		return Suffix{Term: t, K: k}, nil
	}
	p.i--
	return nil, p.errf("unknown function code %q", string(c))
}

// parsePos parses one position function:
//
//	K<int>               ConstPos
//	M<sig><int>B|E       MatchPos
func (p *parser) parsePos() (Pos, error) {
	if p.done() {
		return nil, p.errf("expected a position function")
	}
	c := p.s[p.i]
	p.i++
	switch c {
	case 'K':
		k, err := p.parseInt()
		if err != nil {
			return nil, err
		}
		return ConstPos{K: k}, nil
	case 'M':
		t, k, err := p.parseTermK()
		if err != nil {
			return nil, err
		}
		d, err := p.parseDir()
		if err != nil {
			return nil, err
		}
		return MatchPos{Term: t, K: k, Dir: d}, nil
	}
	p.i--
	return nil, p.errf("unknown position code %q", string(c))
}

func (p *parser) parseTermK() (Term, int, error) {
	t, err := p.parseTerm()
	if err != nil {
		return 0, 0, err
	}
	k, err := p.parseInt()
	if err != nil {
		return 0, 0, err
	}
	return t, k, nil
}

// parseTerm inverts Term.Sig.
func (p *parser) parseTerm() (Term, error) {
	if p.done() {
		return 0, p.errf("expected a term signature")
	}
	c := p.s[p.i]
	p.i++
	switch c {
	case 'C':
		return TermCapital, nil
	case 'l':
		return TermLower, nil
	case 'd':
		return TermDigit, nil
	case 'b':
		return TermSpace, nil
	case 'p':
		return TermPunct, nil
	}
	p.i--
	return 0, p.errf("unknown term signature %q", string(c))
}

func (p *parser) parseDir() (Dir, error) {
	if p.done() {
		return 0, p.errf("expected a direction (B or E)")
	}
	c := p.s[p.i]
	p.i++
	switch c {
	case 'B':
		return DirBegin, nil
	case 'E':
		return DirEnd, nil
	}
	p.i--
	return 0, p.errf("unknown direction %q", string(c))
}

// parseInt parses an optionally negative decimal integer.
func (p *parser) parseInt() (int, error) {
	start := p.i
	if !p.done() && p.s[p.i] == '-' {
		p.i++
	}
	digits := 0
	for !p.done() && p.s[p.i] >= '0' && p.s[p.i] <= '9' {
		p.i++
		digits++
	}
	if digits == 0 {
		return 0, p.errf("expected an integer")
	}
	v, err := strconv.ParseInt(p.s[start:p.i], 10, 64)
	if err != nil || v != int64(int(v)) {
		return 0, p.errf("integer %q out of range", p.s[start:p.i])
	}
	return int(v), nil
}

// parseQuoted parses a Go-quoted string literal (the output of
// strconv.Quote).
func (p *parser) parseQuoted() (string, error) {
	q, err := strconv.QuotedPrefix(p.s[p.i:])
	if err != nil {
		return "", p.errf("expected a quoted string")
	}
	s, err := strconv.Unquote(q)
	if err != nil {
		return "", p.errf("bad quoted string %q", q)
	}
	p.i += len(q)
	return s, nil
}
