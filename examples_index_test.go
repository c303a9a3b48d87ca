package evolving_test

import (
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// TestExamplesIndexed keeps the two example indexes honest: the table in
// examples/README.md and the one under README.md's "## Examples" must
// each name exactly the directories under examples/.
func TestExamplesIndexed(t *testing.T) {
	entries, err := os.ReadDir("examples")
	if err != nil {
		t.Fatal(err)
	}
	var dirs []string
	for _, e := range entries {
		if e.IsDir() {
			dirs = append(dirs, e.Name())
		}
	}
	sort.Strings(dirs)

	for _, index := range []struct{ file, section string }{
		{"examples/README.md", ""},
		{"README.md", "## Examples"},
	} {
		raw, err := os.ReadFile(index.file)
		if err != nil {
			t.Fatal(err)
		}
		text := string(raw)
		if index.section != "" {
			i := strings.Index(text, "\n"+index.section+"\n")
			if i < 0 {
				t.Fatalf("%s: no %q section", index.file, index.section)
			}
			text = text[i+1+len(index.section):]
			if j := strings.Index(text, "\n## "); j >= 0 {
				text = text[:j]
			}
		}
		names := tableNames(text)
		if !reflect.DeepEqual(names, dirs) {
			t.Errorf("%s indexes examples %v, directories are %v", index.file, names, dirs)
		}
	}
}

// tableNames returns, sorted, the first backquoted word of the first
// cell of every Markdown table row in text. Header and separator rows
// carry none and are skipped.
func tableNames(text string) []string {
	var names []string
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, "|") {
			continue
		}
		cell, _, _ := strings.Cut(line[1:], "|")
		_, rest, ok := strings.Cut(cell, "`")
		if !ok {
			continue
		}
		name, _, ok := strings.Cut(rest, "`")
		if ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}
