package core

import (
	"bytes"
	"math/bits"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"llmsql/internal/rel"
)

// ParseStats counts what the tolerant parser had to do, for ablation and
// per-query reports.
type ParseStats struct {
	// LinesSeen counts non-empty completion lines.
	LinesSeen int
	// RowsParsed counts lines accepted as rows.
	RowsParsed int
	// RowsDropped counts lines rejected entirely.
	RowsDropped int
	// Repairs counts individual fixes (stripped bullets, padded fields,
	// rescued numerics, comma fallbacks, ...).
	Repairs int
}

// Add merges another stats value.
func (s *ParseStats) Add(o ParseStats) {
	s.LinesSeen += o.LinesSeen
	s.RowsParsed += o.RowsParsed
	s.RowsDropped += o.RowsDropped
	s.Repairs += o.Repairs
}

// parseListCompletion parses a LIST/KEYS completion into rows over the full
// table schema: fields arrive in the order of cols (positions into the
// schema); all other columns become typed NULLs. keyPos is the schema
// position of the entity key; rows with a NULL key are dropped.
//
// tolerant enables the repair heuristics; when false, only lines with the
// exact field count and cleanly parsing values are accepted.
//
// The rows share one slab sized by the completion's line count, each
// capped at the schema width so an append to one cannot reach the next; a
// line that is built and then rejected leaves its slot to the next line.
// So a completion costs a constant number of allocations, not one per
// line.
func parseListCompletion(text string, schema rel.Schema, cols []int, keyPos int, tolerant bool) ([]rel.Row, ParseStats) {
	var stats ParseStats
	var rows []rel.Row
	var slab []rel.Value
	width := schema.Len()
	var fieldBuf [8]string
	for rest := text; rest != ""; {
		var line string
		line, rest, _ = strings.Cut(rest, "\n")
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		stats.LinesSeen++
		fields, repairs, ok := splitRowLine(line, len(cols), tolerant, fieldBuf[:0])
		if !ok {
			stats.RowsDropped++
			continue
		}
		stats.Repairs += repairs

		if rows == nil {
			// This line and every line after it can yield a row.
			lines := strings.Count(rest, "\n") + 2
			slab = make([]rel.Value, lines*width)
			rows = make([]rel.Row, 0, lines)
		}
		row := slab[:width:width]
		for i := range row {
			row[i] = rel.NullOf(schema.Col(i).Type)
		}
		bad := false
		for i, c := range cols {
			if i >= len(fields) {
				if !tolerant {
					bad = true
					break
				}
				stats.Repairs++ // padded missing field with NULL
				continue
			}
			v, rescued, err := parseField(fields[i], schema.Col(c).Type, tolerant)
			if err != nil {
				if !tolerant {
					bad = true
					break
				}
				stats.Repairs++ // unparseable value becomes NULL
				continue
			}
			if rescued {
				stats.Repairs++
			}
			row[c] = v
		}
		if bad || row[keyPos].IsNull() || strings.TrimSpace(row[keyPos].AsText()) == "" {
			stats.RowsDropped++
			continue
		}
		// Normalize the entity key once, here, so the emitted row, the
		// dedup/convergence key, exclusion lists and every downstream ATTR
		// prompt all agree on one spelling. Without this, whitespace
		// variants of one entity ("United  Kingdom") defeat dedup, desync
		// the prompt<->row pairing of the attribute phase, and miss the
		// completion cache. This is unconditional canonicalization, not a
		// repair: it applies (and is uncounted) under the strict parser
		// too, which accepts or rejects lines before this point.
		if schema.Col(keyPos).Type == rel.TypeText {
			if norm := normalizeKeyText(row[keyPos].AsText()); norm != row[keyPos].AsText() {
				row[keyPos] = rel.Text(norm)
			}
		}
		slab = slab[width:]
		rows = append(rows, row)
		stats.RowsParsed++
	}
	if len(rows) == 0 {
		return nil, stats
	}
	return rows, stats
}

// normalizeKeyText canonicalizes an entity key's whitespace: edges
// trimmed, interior runs collapsed to single spaces. Parsing already trims
// field edges, so this is about interior variants. A key that is already
// canonical — the common case, since parsed keys are normalized once — is
// returned as it is, without allocating.
func normalizeKeyText(s string) string {
	if isCanonicalKey(s) {
		return s
	}
	return strings.Join(strings.Fields(s), " ")
}

// isCanonicalKey reports whether s has no whitespace but single interior
// spaces (whitespace as strings.Fields splits on), so that
// normalizeKeyText(s) == s. Printable ASCII other than the space, most of
// any key, is passed over with one comparison per byte.
func isCanonicalKey(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c-'!' < utf8.RuneSelf-'!' {
			continue
		}
		switch {
		case c == ' ':
			if i == 0 || i == len(s)-1 || s[i-1] == ' ' {
				return false
			}
		case '\t' <= c && c <= '\r':
			return false
		case c >= utf8.RuneSelf:
			r, n := utf8.DecodeRuneInString(s[i:])
			if unicode.IsSpace(r) {
				return false
			}
			i += n - 1
		}
	}
	return true
}

// lowerRune returns the first rune of non-empty s lowered as
// strings.ToLower lowers it — an invalid byte decodes to U+FFFD — and its
// width in s.
func lowerRune(s string) (rune, int) {
	if c := s[0]; c < utf8.RuneSelf {
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		return rune(c), 1
	}
	r, n := utf8.DecodeRuneInString(s)
	return unicode.ToLower(r), n
}

// lowerASCII lowers one ASCII byte; other bytes come back unchanged.
func lowerASCII(c byte) byte {
	if 'A' <= c && c <= 'Z' {
		c += 'a' - 'A'
	}
	return c
}

// asciiPrefix returns the length of the longest prefix of s that is all
// ASCII.
func asciiPrefix(s string) int {
	for i := 0; i < len(s); i++ {
		if s[i] >= utf8.RuneSelf {
			return i
		}
	}
	return len(s)
}

// appendLower appends strings.ToLower(s) to b. The parsers fold case into
// a stack buffer with it rather than allocating a lowered copy per line.
// The ASCII prefix of s is copied and folded byte by byte in place; from
// the first non-ASCII byte on, runes are lowered one at a time, as
// strings.ToLower lowers them.
func appendLower(b []byte, s string) []byte {
	n := asciiPrefix(s)
	start := len(b)
	b = append(b, s[:n]...)
	for i := start; i < len(b); i++ {
		b[i] = lowerASCII(b[i])
	}
	for s = s[n:]; s != ""; {
		r, n := lowerRune(s)
		b = utf8.AppendRune(b, r)
		s = s[n:]
	}
	return b
}

// lowerBufSize is the stack buffer the parsers lower one line or key
// into; longer input spills to the heap.
const lowerBufSize = 256

// equalLower reports whether strings.ToLower(a) == strings.ToLower(b):
// whether their runes lower pairwise to the same runes. Bytes are compared
// folded while both sides are ASCII; from the first non-ASCII byte on
// either side the rest is compared rune by rune. Either way it stops at
// the first difference.
func equalLower(a, b string) bool {
	i := 0
	for ; i < len(a) && i < len(b); i++ {
		ca, cb := a[i], b[i]
		if ca|cb >= utf8.RuneSelf {
			break
		}
		if ca != cb && lowerASCII(ca) != lowerASCII(cb) {
			return false
		}
	}
	for a, b = a[i:], b[i:]; a != "" && b != ""; {
		ra, na := lowerRune(a)
		rb, nb := lowerRune(b)
		if ra != rb {
			return false
		}
		a, b = a[na:], b[nb:]
	}
	return a == "" && b == ""
}

// markerSet is a set of at most eight lower-case ASCII phrases, each at
// least two bytes long, to look for in lines after strings.ToLower.
type markerSet struct {
	markers [][]byte
	// first and second have bit j set for each byte, in either case, that
	// is marker j's first or second byte. A marker can start at a position
	// only if the bytes there are in both, which few positions are.
	first, second [256]uint8
}

func newMarkerSet(markers ...string) *markerSet {
	if len(markers) > 8 {
		panic("core: more than eight markers")
	}
	m := &markerSet{}
	for j, mk := range markers {
		if len(mk) < 2 || asciiPrefix(mk) < len(mk) || strings.ToLower(mk) != mk {
			panic("core: marker " + strconv.Quote(mk) + " is not lower-case ASCII of two bytes or more")
		}
		m.markers = append(m.markers, []byte(mk))
		for k, t := range []*[256]uint8{&m.first, &m.second} {
			t[mk[k]] |= 1 << j
			if 'a' <= mk[k] && mk[k] <= 'z' {
				t[mk[k]-('a'-'A')] |= 1 << j
			}
		}
	}
	return m
}

// in reports whether strings.ToLower(s) contains any of the markers. An
// ASCII line is searched in place, its bytes folded as they are compared.
// At the first non-ASCII byte the line is lowered rune by rune into a
// stack buffer and searched there, since some runes lower to ASCII (the
// Kelvin sign U+212A lowers to 'k'). A match found before that byte lies
// wholly in the ASCII prefix, so it is a match in the lowered line too.
func (m *markerSet) in(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= utf8.RuneSelf {
			var buf [lowerBufSize]byte
			lower := appendLower(buf[:0], s)
			for _, mk := range m.markers {
				if bytes.Contains(lower, mk) {
					return true
				}
			}
			return false
		}
		if i+1 == len(s) {
			break // markers are two bytes or more
		}
		for set := m.first[c] & m.second[s[i+1]]; set != 0; set &= set - 1 {
			if hasLowerPrefix(s[i:], m.markers[bits.TrailingZeros8(set)]) {
				return true
			}
		}
	}
	return false
}

// hasLowerPrefix reports whether s starts with lower-case ASCII marker
// once its bytes are folded.
func hasLowerPrefix(s string, marker []byte) bool {
	if len(s) < len(marker) {
		return false
	}
	for i := 0; i < len(marker); i++ {
		if lowerASCII(s[i]) != marker[i] {
			return false
		}
	}
	return true
}

// isSeparator splits "The X of Y is VALUE." answers.
var isSeparator = []byte(" is ")

// lastIndexIs returns the offset of the last " is " in
// strings.ToLower(line), or -1. For an ASCII line lowering keeps every
// offset, so line is searched in place; otherwise it is lowered into a
// stack buffer first.
func lastIndexIs(line string) int {
	if asciiPrefix(line) < len(line) {
		var buf [lowerBufSize]byte
		return bytes.LastIndex(appendLower(buf[:0], line), isSeparator)
	}
	for i := len(line) - len(isSeparator); i >= 0; i-- {
		if hasLowerPrefix(line[i:], isSeparator) {
			return i
		}
	}
	return -1
}

// splitRowLine turns a completion line into fields, appended to buf (the
// caller's reused buffer). It reports the number of repairs applied and
// whether the line is usable at all.
func splitRowLine(line string, wantFields int, tolerant bool, buf []string) ([]string, int, bool) {
	repairs := 0
	if tolerant {
		// Strip decoration the model sometimes adds.
		for _, prefix := range []string{"- ", "* ", "Row: ", "row: "} {
			if strings.HasPrefix(line, prefix) {
				line = strings.TrimPrefix(line, prefix)
				repairs++
				break
			}
		}
		// Trailing period after a pipe row ("Row: a | b.").
		if strings.HasSuffix(line, ".") && strings.Contains(line, "|") {
			line = strings.TrimSuffix(line, ".")
		}
	}
	if n := strings.Count(line, "|"); n > 0 {
		fields := buf
		for i := 0; i <= n; i++ {
			var p string
			p, line, _ = strings.Cut(line, "|")
			fields = append(fields, strings.TrimSpace(p))
		}
		if !tolerant && len(fields) != wantFields {
			return nil, 0, false
		}
		if len(fields) > wantFields {
			fields = fields[:wantFields]
			repairs++
		}
		if len(fields) < wantFields {
			repairs++ // will be padded by the caller
		}
		return fields, repairs, true
	}
	// No pipe separator.
	if wantFields == 1 {
		// A single-column answer; prose lines are filtered by heuristics:
		// skip obvious commentary (trailing colon, parenthesised notes).
		if looksLikeProse(line) {
			return nil, 0, false
		}
		return append(buf, strings.TrimSuffix(line, ".")), repairs, true
	}
	if !tolerant {
		return nil, 0, false
	}
	// Comma fallback for rows emitted with the wrong separator.
	if strings.Count(line, ",") >= wantFields-1 {
		// The first wantFields-1 commas separate; the rest stay in the last
		// field (strings.SplitN's split).
		fields := buf
		for i := 1; i < wantFields; i++ {
			var p string
			p, line, _ = strings.Cut(line, ",")
			fields = append(fields, strings.TrimSpace(p))
		}
		return append(fields, strings.TrimSpace(line)), repairs + 1, true
	}
	return nil, 0, false
}

// proseMarkers are the lower-case phrases that mark a commentary line.
var proseMarkers = newMarkerSet("here are", "no further", "i do not", "i don't", "end of list", "i'm not sure", "as requested")

// looksLikeProse detects preamble/closing lines such as "Here are the rows:"
// or "(end of list)".
func looksLikeProse(line string) bool {
	if strings.HasSuffix(line, ":") {
		return true
	}
	if strings.HasPrefix(line, "(") && strings.HasSuffix(line, ")") {
		return true
	}
	return proseMarkers.in(line)
}

// parseField parses one field into the column type. rescued reports that a
// lenient extraction was needed (a repair).
func parseField(field string, t rel.DataType, tolerant bool) (rel.Value, bool, error) {
	v, err := rel.ParseTyped(field, t)
	if err == nil {
		return v, false, nil
	}
	if !tolerant {
		return rel.Value{}, false, err
	}
	if t.Numeric() {
		if num, ok := extractNumber(field); ok {
			v, err := rel.ParseTyped(num, t)
			if err == nil {
				return v, true, nil
			}
		}
	}
	return rel.Value{}, false, err
}

// extractNumber pulls the first numeric substring out of chatty values like
// "about 68 million" or "≈1,408 (2021 estimate)".
func extractNumber(s string) (string, bool) {
	start := -1
	for i := 0; i < len(s); i++ {
		c := s[i]
		isNumChar := (c >= '0' && c <= '9') || c == '.' || c == ','
		if start < 0 {
			if c == '-' && i+1 < len(s) && s[i+1] >= '0' && s[i+1] <= '9' {
				start = i
			} else if c >= '0' && c <= '9' {
				start = i
			}
			continue
		}
		if !isNumChar {
			return strings.Trim(s[start:i], ".,"), true
		}
	}
	if start >= 0 {
		return strings.Trim(s[start:], ".,"), true
	}
	return "", false
}

// parseAttrBatchCompletion extracts per-key values from a batched ATTRS
// completion ("<entity> | <value>" lines). Lines are matched to keys by
// the key field, case-insensitively, so reordered or dropped lines cannot
// misattribute a value; under tolerant parsing bullet prefixes and a
// "key: value" separator are repaired. The three returned slices are
// parallel to keys:
//
//   - found[i] reports that key i's line was located and syntactically
//     usable — when false the caller should fall back to a single-key
//     prompt;
//   - ok[i] reports that the located value parsed into the column type and
//     was not a refusal (mirrors parseAttrCompletion's second result);
//   - vals[i] is the parsed value (typed NULL unless ok).
func parseAttrBatchCompletion(text string, keys []string, t rel.DataType, tolerant bool) (vals []rel.Value, ok []bool, found []bool) {
	vals = make([]rel.Value, len(keys))
	ok = make([]bool, len(keys))
	found = make([]bool, len(keys))
	for i := range vals {
		vals[i] = rel.NullOf(t)
	}
	// Keys are matched by scanning the batch (at most BatchSize keys)
	// from the end, so among keys that differ only in case or spacing the
	// last one wins, as it would as a map key.
	var normBuf [8]string
	norm := normBuf[:0]
	for _, k := range keys {
		norm = append(norm, normalizeKeyText(k))
	}
	for rest := text; rest != ""; {
		var line string
		line, rest, _ = strings.Cut(rest, "\n")
		line = strings.TrimSpace(line)
		if line == "" || looksLikeProse(line) {
			continue
		}
		if tolerant {
			for _, prefix := range []string{"- ", "* "} {
				if strings.HasPrefix(line, prefix) {
					line = strings.TrimPrefix(line, prefix)
					break
				}
			}
		}
		keyPart, valPart, split := strings.Cut(line, "|")
		if !split {
			if !tolerant {
				continue
			}
			// Colon fallback ("key: value") for lines emitted with the
			// wrong separator.
			keyPart, valPart, split = strings.Cut(line, ":")
			if !split {
				continue
			}
		}
		keyPart = normalizeKeyText(strings.TrimSpace(keyPart))
		i := len(norm) - 1
		for i >= 0 && !equalLower(norm[i], keyPart) {
			i--
		}
		if i < 0 || found[i] {
			continue // unattributable line, or a duplicate for a seen key
		}
		found[i] = true
		vals[i], ok[i] = parseAttrCompletion(strings.TrimSpace(valPart), t, tolerant)
	}
	return vals, ok, found
}

// refusalMarkers are the lower-case phrases that mark a refusal.
var refusalMarkers = newMarkerSet("i'm not sure", "i am not sure", "i do not know", "i don't know", "unknown")

// parseAttrCompletion extracts a single value from an ATTR completion,
// handling the phrasings the model uses ("Paris", "Paris.",
// "The capital of France is Paris.", "capital: Paris", "I'm not sure.").
func parseAttrCompletion(text string, t rel.DataType, tolerant bool) (rel.Value, bool) {
	line := strings.TrimSpace(text)
	if i := strings.IndexByte(line, '\n'); i >= 0 {
		line = strings.TrimSpace(line[:i])
	}
	if line == "" {
		return rel.NullOf(t), false
	}
	if refusalMarkers.in(line) {
		return rel.NullOf(t), false
	}
	// "The X of Y is VALUE." idx is an offset into the lowered line,
	// applied to line. Unicode lowering can change byte lengths, so on
	// non-ASCII input it may not mark " is " in line itself; that reading
	// is kept so parsed values stay as they were, but an offset past the
	// end of line is not used.
	if idx := lastIndexIs(line); idx >= 0 && idx+len(" is ") <= len(line) && tolerant {
		candidate := strings.TrimSpace(line[idx+4:])
		candidate = strings.TrimSuffix(candidate, ".")
		if v, err := rel.ParseTyped(candidate, t); err == nil && !v.IsNull() {
			return v, true
		}
		if t.Numeric() {
			if num, ok := extractNumber(candidate); ok {
				if v, err := rel.ParseTyped(num, t); err == nil {
					return v, true
				}
			}
		}
	}
	// "column: VALUE"
	if idx := strings.Index(line, ":"); idx >= 0 && tolerant {
		candidate := strings.TrimSpace(line[idx+1:])
		candidate = strings.TrimSuffix(candidate, ".")
		if v, err := rel.ParseTyped(candidate, t); err == nil && !v.IsNull() {
			return v, true
		}
	}
	// Bare value, maybe with trailing period.
	candidate := strings.TrimSuffix(line, ".")
	if v, err := rel.ParseTyped(candidate, t); err == nil && !v.IsNull() {
		return v, true
	}
	if tolerant && t.Numeric() {
		if num, ok := extractNumber(line); ok {
			if v, err := rel.ParseTyped(num, t); err == nil {
				return v, true
			}
		}
	}
	if t == rel.TypeText {
		return rel.Text(candidate), true
	}
	return rel.NullOf(t), false
}
