package goldrec

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
)

// The review file workflow decouples group generation from human
// verification: ExportReview writes the pending groups as JSON, a human
// (or an external review UI) fills in each group's decision, and
// ApplyReview performs the approved replacements. This mirrors how the
// paper's verification step would run in production, where the expert is
// not sitting at the same terminal as the pipeline.

// ReviewGroup is the serialized form of one group awaiting a decision.
type ReviewGroup struct {
	// ID is the group's position in the review file.
	ID int `json:"id"`
	// Program renders the shared transformation.
	Program string `json:"program"`
	// Structure is the shared structure signature.
	Structure string `json:"structure"`
	// Pairs lists the member replacements.
	Pairs []ReviewPair `json:"pairs"`
	// Decision is filled by the reviewer: "approve", "approve-backward"
	// or "reject" (empty or "pending" leaves the group undecided).
	Decision string `json:"decision"`
}

// ReviewPair is one member replacement in a review file.
type ReviewPair struct {
	LHS   string `json:"lhs"`
	RHS   string `json:"rhs"`
	Sites int    `json:"sites"`
}

// ReviewFile is the JSON document round-tripped through the reviewer.
type ReviewFile struct {
	Dataset string `json:"dataset"`
	Column  string `json:"column"`
	// Token identifies the ExportReview call that produced this file.
	// ApplyReview refuses files whose token does not match the session's
	// latest export: group ids address the exported list, and a second
	// export rebinds them, so applying a stale file would silently
	// decide the wrong groups. The token is deterministic (export
	// sequence number plus a digest of the exported groups), so a fresh
	// process that regenerates the same export accepts the same file.
	Token string `json:"token"`
	// Exported records how many groups the export produced. A reviewer
	// may trim Groups down to the subset they decided; Exported is what
	// lets a fresh process (the goldrec CLI's -apply-review) regenerate
	// the original export — and therefore the same token — without
	// knowing the export run's budget flag. ApplyReview itself only
	// trusts the token: a tampered Exported just regenerates a
	// different export whose token will not match.
	Exported int           `json:"exported"`
	Groups   []ReviewGroup `json:"groups"`
}

// ExportReview generates up to budget groups (0 = all) and writes them as
// a JSON review file. The session's group stream is consumed; keep the
// session alive to call ApplyReview with the filled-in file. Each export
// carries a fresh Token, and only the latest export's file is
// applicable.
func (s *Session) ExportReview(w io.Writer, budget int) (*ReviewFile, error) {
	rf := &ReviewFile{
		Dataset: s.cons.ds.Name,
		Column:  s.cons.ds.Attrs[s.col],
	}
	s.exported = s.exported[:0]
	for budget <= 0 || len(rf.Groups) < budget {
		g, ok := s.NextGroup()
		if !ok {
			break
		}
		rg := ReviewGroup{
			ID:        len(rf.Groups),
			Program:   g.Program,
			Structure: g.Structure,
		}
		for _, p := range g.Pairs {
			rg.Pairs = append(rg.Pairs, ReviewPair{LHS: p.LHS, RHS: p.RHS, Sites: p.Sites})
		}
		rf.Groups = append(rf.Groups, rg)
		s.exported = append(s.exported, g)
	}
	s.exportSeq++
	rf.Exported = len(rf.Groups)
	rf.Token = exportToken(s.exportSeq, rf)
	s.exportToken = rf.Token
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rf); err != nil {
		return nil, fmt.Errorf("goldrec: writing review file: %w", err)
	}
	return rf, nil
}

// exportToken derives the review-file token: the session's export
// sequence number plus an FNV-1a digest of the exported content. The
// digest part makes two exports with different groups (a different
// budget, or groups shrunk by applies in between) distinguishable even
// across process restarts, where the sequence number alone restarts
// at 1.
func exportToken(seq int, rf *ReviewFile) string {
	h := fnv.New64a()
	write := func(parts ...string) {
		for _, p := range parts {
			io.WriteString(h, p)
			h.Write([]byte{0})
		}
	}
	// Frame the stream with group and pair counts: without them, one
	// group's trailing pairs and the next group's fields would
	// concatenate into the same byte stream as a differently-split
	// export, and two structurally different exports could share a
	// token.
	write(rf.Dataset, rf.Column)
	fmt.Fprintf(h, "#%d", len(rf.Groups))
	for _, g := range rf.Groups {
		fmt.Fprintf(h, "#%d", len(g.Pairs))
		write(g.Program, g.Structure)
		for _, p := range g.Pairs {
			write(p.LHS, p.RHS)
		}
	}
	return fmt.Sprintf("exp-%d-%016x", seq, h.Sum64())
}

// ApplyReview reads a filled-in review file and applies every approved
// group in the chosen direction, recording "reject" verdicts as well.
// It returns the per-group apply stats indexed by exported group id
// (the slice always spans the full export, so a file that decides only
// a subset of the exported groups leaves the untouched ids zero).
//
// The whole file is validated before anything is applied, and a file
// that fails validation changes nothing: the token must match the
// session's latest ExportReview, every id must be in the exported
// range and appear at most once, and a group that already has a
// decision cannot be decided again.
func (s *Session) ApplyReview(r io.Reader) ([]ApplyStats, error) {
	var rf ReviewFile
	if err := json.NewDecoder(r).Decode(&rf); err != nil {
		return nil, fmt.Errorf("goldrec: reading review file: %w", err)
	}
	if s.exportToken == "" {
		return nil, fmt.Errorf("goldrec: no outstanding review export to apply against")
	}
	if rf.Token != s.exportToken {
		return nil, fmt.Errorf("goldrec: review file token %q does not match the latest export %q (stale or foreign file; re-export and re-review)",
			rf.Token, s.exportToken)
	}
	decisions := make([]Decision, len(rf.Groups))
	seen := make(map[int]bool, len(rf.Groups))
	for i, rg := range rf.Groups {
		if rg.ID < 0 || rg.ID >= len(s.exported) {
			return nil, fmt.Errorf("goldrec: review group id %d out of range (%d exported)", rg.ID, len(s.exported))
		}
		if seen[rg.ID] {
			return nil, fmt.Errorf("goldrec: review group id %d appears more than once", rg.ID)
		}
		seen[rg.ID] = true
		d, err := ParseDecision(rg.Decision)
		if err != nil {
			return nil, fmt.Errorf("goldrec: review group %d has unknown decision %q", rg.ID, rg.Decision)
		}
		if d != Pending && s.exported[rg.ID].decision != Pending {
			return nil, fmt.Errorf("goldrec: review group %d already decided (%s)", rg.ID, s.exported[rg.ID].decision)
		}
		decisions[i] = d
	}
	out := make([]ApplyStats, len(s.exported))
	for i, rg := range rf.Groups {
		out[rg.ID] = s.decide(s.exported[rg.ID], decisions[i])
	}
	return out, nil
}
