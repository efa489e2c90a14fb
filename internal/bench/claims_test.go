package bench

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"
)

// The sections of bench_results.txt the claim table reads, by the title
// text before the colon.
const (
	fig9a  = "Figure 9 (correlated)"
	fig9b  = "Figure 9 (independent)"
	fig9c  = "Figure 9 (anti-correlated)"
	fig10a = "Figure 10a"
	fig10b = "Figure 10b"
	fig10c = "Figure 10c"
	fig11a = "Figure 11 (C2)"
	fig11b = "Figure 11 (C3)"
)

var (
	strategies = []string{"CAQE", "S-JFSL", "JFSL", "ProgXe+", "SSMJ"}
	unshared   = []string{"JFSL", "ProgXe+", "SSMJ"}
	datasets   = []string{"correlated", "independent", "anti-correlated"}
)

// figures is a parsed figure file: section → row label → column → value.
type figures map[string]map[string]map[string]float64

// parseFigures reads the tables `caqe-bench -fig all` prints: a "== title ==
// " line opens a section, its first line starting with CAQE names the
// columns, and every later line with one label and a number per column is a
// row.
func parseFigures(path string) (figures, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := figures{}
	var section string
	var cols []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if title, ok := strings.CutPrefix(line, "== "); ok {
			section, _, _ = strings.Cut(title, ":")
			section = strings.TrimSuffix(section, " ==")
			out[section], cols = map[string]map[string]float64{}, nil
			continue
		}
		fields := strings.Fields(line)
		switch {
		case section == "" || len(fields) == 0:
		case cols == nil && fields[0] == "CAQE":
			cols = fields
		case cols != nil && len(fields) == len(cols)+1:
			row := map[string]float64{}
			for i, c := range cols {
				v, err := strconv.ParseFloat(fields[i+1], 64)
				if err != nil {
					return nil, fmt.Errorf("%s, row %q: %v", section, fields[0], err)
				}
				row[c] = v
			}
			out[section][fields[0]] = row
		}
	}
	return out, sc.Err()
}

// claim is one row of the claim table: a sentence of EXPERIMENTS.md's
// "Measured shape" paragraphs, checked against the committed figures.
// owner is 0 for a claim that holds, else the ROADMAP item that owns the
// known deviation.
type claim struct {
	name  string
	owner int
	holds func(cellFunc) bool
}

// claims is the table. A change that moves the figures and with them a row
// flips the row here, in the same diff.
var claims = []claim{
	{"9a C2–C5: CAQE and S-JFSL saturate", 0, func(c cellFunc) bool {
		for _, row := range []string{"C2", "C3", "C4", "C5"} {
			if c(fig9a, row, "CAQE") != 1 || c(fig9a, row, "S-JFSL") != 1 {
				return false
			}
		}
		return true
	}},
	{"9a C3 and C5: CAQE above JFSL and ProgXe+", 0, func(c cellFunc) bool {
		return above(c, fig9a, "C3", "CAQE", "JFSL", "ProgXe+") && above(c, fig9a, "C5", "CAQE", "JFSL", "ProgXe+")
	}},
	{"9a C1: CAQE at or above every other strategy", 14, func(c cellFunc) bool {
		return atLeast(c, fig9a, "C1", "CAQE", strategies...)
	}},
	{"9a C2: CAQE above every unshared strategy", 16, func(c cellFunc) bool {
		return above(c, fig9a, "C2", "CAQE", unshared...)
	}},
	{"9b C1: CAQE at or above every other strategy", 0, func(c cellFunc) bool {
		return atLeast(c, fig9b, "C1", "CAQE", strategies...)
	}},
	{"9b C2: CAQE at or above every other strategy", 0, func(c cellFunc) bool {
		return atLeast(c, fig9b, "C2", "CAQE", strategies...)
	}},
	{"9b C3: CAQE at or above every other strategy", 0, func(c cellFunc) bool {
		return atLeast(c, fig9b, "C3", "CAQE", strategies...)
	}},
	{"9b C4: ProgXe+ within 2 % (0.020) of CAQE", 14, func(c cellFunc) bool {
		d := c(fig9b, "C4", "ProgXe+") - c(fig9b, "C4", "CAQE")
		return math.Abs(math.Round(d*1000)) <= 20 // the cells have three decimals
	}},
	{"9b C5: CAQE at or above every unshared strategy", 16, func(c cellFunc) bool {
		return atLeast(c, fig9b, "C5", "CAQE", unshared...)
	}},
	{"9c C1: CAQE and S-JFSL above every unshared strategy", 0, func(c cellFunc) bool {
		return above(c, fig9c, "C1", "CAQE", unshared...) && above(c, fig9c, "C1", "S-JFSL", unshared...)
	}},
	{"9c C2: CAQE at 1.5× every unshared strategy", 16, func(c cellFunc) bool {
		for _, s := range unshared {
			if c(fig9c, "C2", "CAQE") < 1.5*c(fig9c, "C2", s) {
				return false
			}
		}
		return true
	}},
	{"9c C3: CAQE at or above every unshared strategy", 15, func(c cellFunc) bool {
		return atLeast(c, fig9c, "C3", "CAQE", unshared...)
	}},
	{"9c C5: CAQE at or above every unshared strategy", 16, func(c cellFunc) bool {
		return atLeast(c, fig9c, "C5", "CAQE", unshared...)
	}},
	{"10a: CAQE makes the fewest join results on every dataset", 0, func(c cellFunc) bool {
		return ratiosAtLeast(c, fig10a, 1, datasets, strategies[1:]...)
	}},
	{"10a: JFSL and SSMJ make at least 10× CAQE's join results on every dataset", 0, func(c cellFunc) bool {
		return ratiosAtLeast(c, fig10a, 10, datasets, "JFSL", "SSMJ")
	}},
	{"10b correlated and independent: CAQE makes the fewest comparisons", 0, func(c cellFunc) bool {
		return ratiosAtLeast(c, fig10b, 1, []string{"correlated", "independent"}, strategies[1:]...)
	}},
	{"10b anti-correlated: CAQE makes the fewest comparisons", 15, func(c cellFunc) bool {
		return ratiosAtLeast(c, fig10b, 1, []string{"anti-correlated"}, strategies[1:]...)
	}},
	{"10c: CAQE faster than every unshared strategy on every dataset", 0, func(c cellFunc) bool {
		return ratiosAtLeast(c, fig10c, 1, datasets, unshared...)
	}},
	{"10c independent: CAQE the fastest", 0, func(c cellFunc) bool {
		for _, s := range strategies[1:] {
			if c(fig10c, "independent", s) < 1 {
				return false
			}
		}
		return true
	}},
	{"10c correlated: CAQE at least as fast as S-JFSL", 14, func(c cellFunc) bool {
		return c(fig10c, "correlated", "S-JFSL") >= 1
	}},
	{"10c anti-correlated: CAQE at least as fast as S-JFSL", 15, func(c cellFunc) bool {
		return c(fig10c, "anti-correlated", "S-JFSL") >= 1
	}},
	{"11a: CAQE drops less than ProgXe+ and SSMJ from |S_Q|=1 to 11", 0, func(c cellFunc) bool {
		return drop(c, fig11a, "CAQE") < drop(c, fig11a, "ProgXe+") && drop(c, fig11a, "CAQE") < drop(c, fig11a, "SSMJ")
	}},
	{"11a: CAQE leads at |S_Q|=11", 0, func(c cellFunc) bool {
		return atLeast(c, fig11a, "|S_Q|=11", "CAQE", strategies...)
	}},
	{"11b: every strategy at 1.000 for |S_Q|=1", 0, func(c cellFunc) bool {
		for _, s := range strategies {
			if c(fig11b, "|S_Q|=1", s) != 1 {
				return false
			}
		}
		return true
	}},
	{"11b: CAQE drops least from |S_Q|=1 to 11", 0, func(c cellFunc) bool {
		for _, s := range strategies[1:] {
			if drop(c, fig11b, "CAQE") > drop(c, fig11b, s) {
				return false
			}
		}
		return true
	}},
}

type cellFunc = func(section, row, col string) float64

// atLeast reports whether column who of the row is ≥ every column of others
// (who itself included harmlessly).
func atLeast(c cellFunc, section, row, who string, others ...string) bool {
	for _, o := range others {
		if c(section, row, who) < c(section, row, o) {
			return false
		}
	}
	return true
}

// above reports whether column who of the row is > every column of others.
func above(c cellFunc, section, row, who string, others ...string) bool {
	for _, o := range others {
		if c(section, row, who) <= c(section, row, o) {
			return false
		}
	}
	return true
}

// ratiosAtLeast reports whether every listed column of a Figure 10 table, a
// ratio against CAQE, is at least floor on every listed dataset.
func ratiosAtLeast(c cellFunc, section string, floor float64, rows []string, cols ...string) bool {
	for _, ds := range rows {
		for _, col := range cols {
			if c(section, ds, col) < floor {
				return false
			}
		}
	}
	return true
}

// drop is a Figure 11 column's relative loss from one query to eleven.
func drop(c cellFunc, section, col string) float64 {
	return 1 - c(section, "|S_Q|=11", col)/c(section, "|S_Q|=1", col)
}

// TestClaimTable checks the paper's claims, one row each, against the
// committed bench_results.txt (CI ties that file to a fresh run). A row
// that holds must keep holding, and a known deviation that starts to hold
// fails too: the change that fixed it flips the row to holds.
func TestClaimTable(t *testing.T) {
	figs, err := parseFigures("../../bench_results.txt")
	if err != nil {
		t.Fatal(err)
	}
	cell := func(section, row, col string) float64 {
		v, ok := figs[section][row][col]
		if !ok {
			t.Fatalf("bench_results.txt has no cell %s / %s / %s", section, row, col)
		}
		return v
	}
	for _, cl := range claims {
		got := cl.holds(cell)
		status := "holds"
		if cl.owner != 0 {
			status = fmt.Sprintf("known deviation, item %d", cl.owner)
		}
		t.Logf("%-28s %-5v %s", status, got, cl.name)
		switch {
		case cl.owner == 0 && !got:
			t.Errorf("claim broke: %s", cl.name)
		case cl.owner != 0 && got:
			t.Errorf("known deviation (ROADMAP item %d) now holds, flip the row: %s", cl.owner, cl.name)
		}
	}
}
