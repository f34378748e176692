package fpbtree

import (
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// catalogSections are the DESIGN.md sections whose tables make up the
// metric catalog: observability (§9), concurrency (§11) and durability
// (§12).
var catalogSections = []string{"## 9. ", "## 11. ", "## 12. "}

var backticked = regexp.MustCompile("`([^`]+)`")

// catalogPatterns reads the metric names out of DESIGN.md's catalog
// tables. A row whose first cell is a prefix (`buffer.`) names one
// metric per backticked word in its other cells; any other row names
// the backticked words of its first cell, where {a,b} stands for either
// alternative and a comma-free {word} for any name segment.
func catalogPatterns(t *testing.T) []*regexp.Regexp {
	t.Helper()
	doc, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	var pats []*regexp.Regexp
	add := func(name string) {
		var re strings.Builder
		re.WriteString("^")
		for name != "" {
			open := strings.IndexByte(name, '{')
			if open < 0 {
				re.WriteString(regexp.QuoteMeta(name))
				break
			}
			end := strings.IndexByte(name[open:], '}') + open
			re.WriteString(regexp.QuoteMeta(name[:open]))
			if alts := name[open+1 : end]; strings.Contains(alts, ",") {
				re.WriteString("(" + strings.ReplaceAll(regexp.QuoteMeta(alts), ",", "|") + ")")
			} else {
				re.WriteString("[a-z0-9_]+")
			}
			name = name[end+1:]
		}
		re.WriteString("$")
		pats = append(pats, regexp.MustCompile(re.String()))
	}
	in := false
	for _, line := range strings.Split(string(doc), "\n") {
		if strings.HasPrefix(line, "## ") {
			in = false
			for _, s := range catalogSections {
				in = in || strings.HasPrefix(line, s)
			}
		}
		if !in || !strings.HasPrefix(line, "|") {
			continue
		}
		cells := strings.Split(strings.Trim(line, "|"), "|")
		first := backticked.FindAllStringSubmatch(cells[0], -1)
		if len(first) == 1 && strings.HasSuffix(first[0][1], ".") {
			for _, c := range cells[1:] {
				for _, m := range backticked.FindAllStringSubmatch(c, -1) {
					add(first[0][1] + m[1])
				}
			}
			continue
		}
		for _, m := range first {
			add(m[1])
		}
	}
	if len(pats) == 0 {
		t.Fatal("no catalog tables found in DESIGN.md")
	}
	return pats
}

// TestMetricCatalogComplete builds the stack the benchmark serves from —
// a concurrent tree on the durable store with checksums — drives every
// operation kind and a commit, and requires every counter, gauge and
// histogram its registry exposes to appear in DESIGN.md's catalogs.
func TestMetricCatalogComplete(t *testing.T) {
	pats := catalogPatterns(t)
	tr := servingWorkout(t, WithStorePath(t.TempDir()), WithChecksums())
	defer tr.Close()
	if err := tr.Insert(2, 9); err != nil {
		t.Fatal(err)
	}
	if err := tr.Commit(1); err != nil {
		t.Fatal(err)
	}
	snap := tr.MetricsSnapshot()
	var names []string
	for n := range snap.Counters {
		names = append(names, n)
	}
	for n := range snap.Gauges {
		names = append(names, n)
	}
	for n := range snap.Histograms {
		names = append(names, n)
	}
	sort.Strings(names)
	if len(snap.Histograms) == 0 || len(snap.Counters) == 0 {
		t.Fatalf("workout registered %d counters and %d histograms", len(snap.Counters), len(snap.Histograms))
	}
	for _, n := range names {
		found := false
		for _, p := range pats {
			if p.MatchString(n) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("metric %q is missing from DESIGN.md's §9/§11/§12 catalogs", n)
		}
	}
}
