package core

import (
	"fmt"
	"strings"
	"testing"

	"llmsql/internal/rel"
	"llmsql/internal/sql"
)

func promptTable() *VirtualTable {
	return &VirtualTable{
		Name:        "country",
		Description: "a sovereign country of the world",
		Schema: rel.NewSchema(
			rel.Column{Name: "name", Type: rel.TypeText, Key: true, Desc: "the country's name"},
			rel.Column{Name: "capital", Type: rel.TypeText, Desc: "the capital city"},
			rel.Column{Name: "population", Type: rel.TypeInt, Desc: "population in millions"},
		),
	}
}

func TestBuildListPrompt(t *testing.T) {
	filter, err := sql.ParseExpr("population > 50")
	if err != nil {
		t.Fatal(err)
	}
	p := buildListPrompt(promptTable(), []int{0, 2}, filter, []string{"France", "Japan"}, 40)
	for _, want := range []string{
		"TASK: LIST",
		"TABLE: country -- a sovereign country of the world",
		"name -- the country's name",
		"population -- population in millions",
		"FILTER: population > 50",
		"population is greater than 50",
		"EXCLUDE: France | Japan",
		"MAXROWS: 40",
	} {
		if !strings.Contains(p, want) {
			t.Errorf("prompt missing %q:\n%s", want, p)
		}
	}
	if strings.Contains(p, "capital") {
		t.Error("unneeded column leaked into prompt")
	}
}

func TestBuildKeysPrompt(t *testing.T) {
	p := buildKeysPrompt(promptTable(), nil, nil, 0)
	if !strings.Contains(p, "TASK: KEYS") {
		t.Errorf("keys prompt:\n%s", p)
	}
	if !strings.Contains(p, "name -- the country's name") {
		t.Errorf("key column missing:\n%s", p)
	}
	if strings.Contains(p, "FILTER") || strings.Contains(p, "MAXROWS") {
		t.Errorf("unexpected optional lines:\n%s", p)
	}
}

func TestBuildAttrPrompt(t *testing.T) {
	p := buildAttrPrompt(promptTable(), "France", 1)
	for _, want := range []string{"TASK: ATTR", "ENTITY: France", "COLUMN: capital -- the capital city"} {
		if !strings.Contains(p, want) {
			t.Errorf("attr prompt missing %q:\n%s", want, p)
		}
	}
}

func TestFilterQualifiersStripped(t *testing.T) {
	filter, err := sql.ParseExpr("c.population > 50 AND c.name LIKE 'A%'")
	if err != nil {
		t.Fatal(err)
	}
	p := buildListPrompt(promptTable(), []int{0, 1, 2}, filter, nil, 0)
	if strings.Contains(p, "c.population") {
		t.Errorf("qualifier leaked:\n%s", p)
	}
	if !strings.Contains(p, "FILTER: population > 50 AND name LIKE 'A%'") {
		t.Errorf("canonical filter wrong:\n%s", p)
	}
}

func TestVerbalizePredicate(t *testing.T) {
	cases := map[string]string{
		"population > 50":   "population is greater than 50",
		"a = 1 AND b < 2":   "a equals 1 and b is less than 2",
		"x BETWEEN 1 AND 5": "x is between 1 and 5",
		"name LIKE 'A%'":    "name matches the pattern 'A%'",
		"c IN ('x', 'y')":   "c is one of 'x', 'y'",
		"c NOT IN ('x')":    "c is none of 'x'",
		"v IS NULL":         "v is unknown",
		"v IS NOT NULL":     "v is known",
		"NOT (a = 1)":       "not (a equals 1)",
		"population >= 10":  "population is at least 10",
		"population <= 10":  "population is at most 10",
		"population <> 10":  "population differs from 10",
	}
	for in, want := range cases {
		e, err := sql.ParseExpr(in)
		if err != nil {
			t.Fatalf("%q: %v", in, err)
		}
		if got := VerbalizePredicate(e); got != want {
			t.Errorf("Verbalize(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestNeededColumns(t *testing.T) {
	schema := promptTable().Schema
	// nil mask = all columns.
	cols := neededColumns(schema, nil)
	if len(cols) != 3 {
		t.Fatalf("all: %v", cols)
	}
	// Key always included even when masked out.
	cols = neededColumns(schema, []bool{false, false, true})
	if len(cols) != 2 || cols[0] != 0 || cols[1] != 2 {
		t.Fatalf("masked: %v", cols)
	}
}

// TestAttrPromptsMatchFmtLayout pins the fmt-free ATTR and ATTRS builders
// to the layout they had when written with fmt: a prompt is part of every
// fingerprint, so one changed byte would miss every cache and trace.
func TestAttrPromptsMatchFmtLayout(t *testing.T) {
	tab := promptTable()
	tab.Name = "Côte_Table"
	keys := []string{"France", "Côte d'Ivoire", "", "São Tomé and Príncipe"}
	for col := 0; col < tab.Schema.Len(); col++ {
		c := tab.Schema.Col(col)
		table := fmt.Sprintf("TABLE: %s -- %s\n", strings.ToLower(tab.Name), tab.Description)
		column := fmt.Sprintf("COLUMN: %s -- %s\n", c.Name, c.Desc)
		for n := 0; n <= len(keys); n++ {
			want := promptHeader + "\nTASK: ATTRS\n" + table +
				fmt.Sprintf("ENTITIES: %s\n", strings.Join(keys[:n], " | ")) + column +
				"Respond with one line per entity, in the order given, formatted as '<entity> | <value>'. Output data only, no commentary."
			if got := buildAttrBatchPrompt(tab, keys[:n], col); got != want {
				t.Fatalf("ATTRS prompt for %d keys, column %d:\n got %q\nwant %q", n, col, got, want)
			}
		}
		for _, k := range keys {
			want := promptHeader + "\nTASK: ATTR\n" + table + fmt.Sprintf("ENTITY: %s\n", k) + column + "Respond with only the value."
			if got := buildAttrPrompt(tab, k, col); got != want {
				t.Fatalf("ATTR prompt for %q, column %d:\n got %q\nwant %q", k, col, got, want)
			}
		}
	}
}
