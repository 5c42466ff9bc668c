package goldrec

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"testing"

	"github.com/goldrec/goldrec/internal/datagen"
)

// TestGroupSequenceDigest pins the shipped review loop's output. On the
// experiments' tiny configurations of the three datagen families at
// seeds 1 and 2, a Session reviews 40 groups with the oracle verifier;
// the SHA-256 of every issued group's program key, its Pairs in apply
// order and its decision, followed by the column's final values, must
// match the pinned hex. Crash recovery replays a WAL by re-running the
// engine and trusts it to issue the same groups in the same order, so
// any change to group formation, ordering or application shows here.
// Context.Prepare builds graphs on GOMAXPROCS workers; CI runs this
// test at -cpu 1,2.
func TestGroupSequenceDigest(t *testing.T) {
	cases := []struct {
		name string
		gen  func(datagen.Config) *datagen.Generated
		n    int
		want [2]string // seeds 1 and 2
	}{
		{"Address", datagen.Address, 60, [2]string{
			"71f369e59c519b73aabe36fc3c3d39e16cbd4f4fd9e54c54323e335955f3ddd1",
			"2fddecf41fdbfa99fceefc274ce50f2ee0deeeafdccc6252ed04c4e187ab0f8e",
		}},
		{"JournalTitle", datagen.JournalTitle, 120, [2]string{
			"498a83ffe710a4e631cfea4d00dbc277277715e75913dc95ba194b26c745a969",
			"84b489b8c40cb8bb72f85ad3ee0db5e8527e8805bfdb4ec92dfc5d9a53166a19",
		}},
		{"AuthorList", datagen.AuthorList, 12, [2]string{
			"338a87fe8965236e4b56fe6e48047b900774c95ab460d0e3d084b8bc69766c0a",
			"5f916ca32758ec27e6bbd392f89b2dc3853bf5f3110745cbbd7abdc765c17952",
		}},
	}
	for _, tc := range cases {
		for i, seed := range []int64{1, 2} {
			t.Run(fmt.Sprintf("%s/seed%d", tc.name, seed), func(t *testing.T) {
				g := tc.gen(datagen.Config{Seed: seed, Clusters: tc.n})
				cons, err := New(g.Data)
				if err != nil {
					t.Fatal(err)
				}
				sess, err := cons.ColumnIndex(g.Col)
				if err != nil {
					t.Fatal(err)
				}
				verify := sess.OracleVerifier(g.Truth, 0)
				h := sha256.New()
				for n := 0; n < 40; n++ {
					grp, ok := sess.NextGroup()
					if !ok {
						break
					}
					d := Rejected
					if ok, dir := verify(grp); ok {
						d = approval(dir)
					}
					if _, err := sess.Decide(grp.ID, d); err != nil {
						t.Fatal(err)
					}
					field(h, grp.ProgramKey())
					for _, p := range grp.Pairs {
						field(h, p.LHS, p.RHS, fmt.Sprint(p.Sites))
					}
					field(h, grp.Decision().String())
				}
				for _, cl := range g.Data.Clusters {
					for _, r := range cl.Records {
						field(h, r.Values[g.Col])
					}
				}
				got := hex.EncodeToString(h.Sum(nil))
				if got != tc.want[i] {
					t.Errorf("digest %s, want %s", got, tc.want[i])
				}
			})
		}
	}
}

// field writes each string length-prefixed, so that no two different
// field sequences hash the same bytes.
func field(h hash.Hash, ss ...string) {
	for _, s := range ss {
		fmt.Fprintf(h, "%d:%s", len(s), s)
	}
}
