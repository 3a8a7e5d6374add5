package core

import (
	"fmt"
	"math"
	"testing"

	"llmsql/internal/rel"
)

// Differential fuzz target and properties for the in-place vote merge:
// mergeVotes must pick exactly the value the map-and-key merge in
// merge_ref_test.go picks, and sameKey must hold exactly when two values
// render the same rel.Row.Key string.

// votePool returns the values a fuzzed vote set draws from: mixed types,
// NaN, ±0 and ±Inf, integers beyond float64 precision (2^53 and 2^53+1
// share a key), text that equals a number's key ("1e+21", "2"), padded,
// case-varied and non-ASCII text, invalid UTF-8, booleans, typed and
// untyped NULLs, plus the fuzzer's own text, integer and float.
func votePool(s string, i int64, f float64) []rel.Value {
	return []rel.Value{
		rel.Int(2), rel.Float(2), rel.Text("2"), rel.Text(" 2 "),
		rel.Float(math.NaN()), rel.Float(math.Float64frombits(0x7ff8000000000001)),
		rel.Float(0), rel.Float(math.Copysign(0, -1)), rel.Int(0), rel.Text("-0"),
		rel.Float(math.Inf(1)), rel.Float(math.Inf(-1)), rel.Text("+inf"),
		rel.Int(1 << 53), rel.Int(1<<53 + 1), rel.Float(1 << 53),
		rel.Float(1e21), rel.Text("1E+21"), rel.Int(math.MaxInt64), rel.Int(math.MinInt64),
		rel.Text("Paris"), rel.Text("PARIS"), rel.Text("  paris\t"), rel.Text("Pa ris"),
		rel.Text("Côte d'Ivoire"), rel.Text("CÔTE D'IVOIRE"), rel.Text("Kenya"), rel.Text("kenya"),
		rel.Text("Ruſsia"), rel.Text("russia"), rel.Text("\xff"), rel.Text("�"),
		rel.Text(" x "), rel.Text("x"), rel.Text(""), rel.Text("true"), rel.Text("NULL"),
		rel.Bool(true), rel.Bool(false), rel.Text("TRUE"),
		rel.Null(), rel.NullOf(rel.TypeInt), rel.NullOf(rel.TypeText),
		rel.Text(s), rel.Int(i), rel.Float(f), rel.Float(float64(i)),
	}
}

// rowKey is the key mergeVotes' equality must reproduce.
func rowKey(v rel.Value) string { return rel.Row{v}.AllKey() }

func FuzzMergeVotes(f *testing.F) {
	f.Add([]byte{0, 1, 2}, "2", int64(2), 2.0)
	f.Add([]byte{4, 5, 4}, "NaN", int64(0), math.NaN())
	f.Add([]byte{6, 7, 8, 9}, "-0", int64(0), math.Copysign(0, -1))
	f.Add([]byte{13, 14, 15, 14}, "9007199254740993", int64(1<<53+1), float64(1<<53))
	f.Add([]byte{16, 17, 16, 17, 0x80 | 16}, "1e+21", int64(0), 1e21)
	f.Add([]byte{20, 21, 22, 23, 22}, " PARIS ", int64(1), 0.5)
	f.Add([]byte{24, 25, 26, 27, 28, 29}, "Côte", int64(-7), -1.5)
	f.Add([]byte{30, 31, 32, 33, 34}, "\xfe", int64(3), 3.0)
	f.Add([]byte{38, 39, 40, 41, 42, 43}, "null", int64(0), 0.0)
	f.Add([]byte{0x80, 0x81, 0x82}, "", int64(0), 0.0)
	f.Add([]byte{44, 45, 46, 47, 44}, "  12 ", int64(12), 12.0)
	f.Fuzz(func(t *testing.T, sel []byte, s string, i int64, fl float64) {
		pool := votePool(s, i, fl)
		if len(sel) > 8 {
			sel = sel[:8]
		}
		votes := make([]attrVote, len(sel))
		for j, b := range sel {
			// The high bit marks an unparsable vote; the rest picks a value.
			votes[j] = attrVote{val: pool[int(b&0x7f)%len(pool)], ok: b&0x80 == 0}
		}
		for _, ty := range fuzzTypes {
			got, want := mergeVotes(votes, ty), refMergeVotes(votes, ty)
			if !identical(got, want) {
				t.Fatalf("mergeVotes(%v, %s) = %#v, reference %#v", votes, ty, got, want)
			}
		}
		for _, a := range votes {
			for _, b := range votes {
				if sameKey(a.val, b.val) != (rowKey(a.val) == rowKey(b.val)) {
					t.Fatalf("sameKey(%#v, %#v) = %v, keys %q and %q", a.val, b.val, sameKey(a.val, b.val), rowKey(a.val), rowKey(b.val))
				}
			}
		}
	})
}

// identical reports whether a and b are the same value down to the bits
// of a float (%#v prints every NaN payload alike).
func identical(a, b rel.Value) bool {
	return fmt.Sprintf("%#v", a) == fmt.Sprintf("%#v", b) &&
		math.Float64bits(a.AsFloat()) == math.Float64bits(b.AsFloat())
}

// TestSameKeyIsRowKeyEquality: over every pair of the pool's values (and
// a few fuzzer-style extras), sameKey holds exactly when the Row.Key
// strings are equal.
func TestSameKeyIsRowKeyEquality(t *testing.T) {
	pool := votePool("PaRiS ", 2, -0.0)
	pool = append(pool, votePool("1e+21", 1<<53+1, 1e21)...)
	for _, a := range pool {
		for _, b := range pool {
			if got, want := sameKey(a, b), rowKey(a) == rowKey(b); got != want {
				t.Errorf("sameKey(%#v, %#v) = %v, keys %q and %q", a, b, got, rowKey(a), rowKey(b))
			}
		}
	}
}

// TestMergeVotesTieAndOrder: the most frequent value wins, ties go to the
// earliest vote, the first-seen spelling is returned, and all-unparsable
// sets yield a typed NULL.
func TestMergeVotesTieAndOrder(t *testing.T) {
	v := func(val rel.Value) attrVote { return attrVote{val: val, ok: true} }
	cases := []struct {
		votes []attrVote
		want  rel.Value
	}{
		{[]attrVote{v(rel.Text("Lyon")), v(rel.Text("paris")), v(rel.Text("PARIS"))}, rel.Text("paris")},
		{[]attrVote{v(rel.Text("Lyon")), v(rel.Text("Paris"))}, rel.Text("Lyon")},
		{[]attrVote{v(rel.Int(3)), v(rel.Float(3)), v(rel.Int(4))}, rel.Int(3)},
		{[]attrVote{v(rel.Float(0)), v(rel.Float(math.Copysign(0, -1))), v(rel.Float(math.Copysign(0, -1)))}, rel.Float(math.Copysign(0, -1))},
		{[]attrVote{{val: rel.Text("x")}, v(rel.Text("y"))}, rel.Text("y")},
		{[]attrVote{{val: rel.Text("x")}, {val: rel.Text("x")}}, rel.NullOf(rel.TypeText)},
	}
	for _, tc := range cases {
		if got := mergeVotes(tc.votes, rel.TypeText); !identical(got, tc.want) {
			t.Errorf("mergeVotes(%v) = %#v, want %#v", tc.votes, got, tc.want)
		}
	}
}
