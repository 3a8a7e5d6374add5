package llm

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzDiskRecordEncoding checks the hand-written record encoder against
// encoding/json, byte for byte: DiskCache segments written by either must
// be indistinguishable, and load decodes them with json.Unmarshal. Without
// -fuzz it runs its seed corpus as an ordinary test (`make fuzz` and the
// CI fuzz-smoke job fuzz it).
func FuzzDiskRecordEncoding(f *testing.F) {
	f.Add("3f2a", 2, "France | Paris\nJapan | Tokyo", 12, 7, false, false)
	f.Add("", 0, "", 0, 0, true, true)
	f.Add("fp", -1, `quote " backslash \ slash /`, -5, 1<<40, true, false)
	f.Add("<script>", 3, "a < b && c > d", 1, 1, false, true)
	f.Add("sep\u2028", 2, "line\u2028para\u2029end", 2, 2, false, false)
	f.Add("ctl", 2, "\x00\x01\b\f\n\r\t\x1f\x7f", 3, 3, false, false)
	f.Add("utf8", 2, "Côte d'Ivoire 日本 \xff\xfe \xed\xa0\x80 \xc3 �", 4, 4, true, false)
	f.Fuzz(func(t *testing.T, fp string, version int, text string, pt, ct int, tr, del bool) {
		rec := diskRecord{FP: fp, Version: version, Text: text, Prompt: pt, Compl: ct, Truncated: tr, Deleted: del}
		want, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, '\n')
		got := appendRecord([]byte("stale"), &rec)[len("stale"):]
		if !bytes.Equal(got, want) {
			t.Fatalf("appendRecord(%+v)\n got %q\nwant %q", rec, got, want)
		}
	})
}

// TestAppendRecordAllocs pins the encoder to no allocations once the
// reused buffer has grown.
func TestAppendRecordAllocs(t *testing.T) {
	rec := diskRecord{FP: "3f2a9c", Version: FingerprintVersion, Text: "France | Paris <capital> & more\nJapan | Tokyo", Prompt: 40, Compl: 9}
	buf := appendRecord(nil, &rec)
	if got := testing.AllocsPerRun(100, func() { buf = appendRecord(buf[:0], &rec) }); got != 0 {
		t.Fatalf("appendRecord allocated %.1f times, want 0", got)
	}
}
