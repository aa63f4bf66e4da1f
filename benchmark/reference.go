package main

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"dhtm/internal/harness"
)

// reference is one number from the paper's evaluation, as quoted in the
// notes of the harness table that reproduces it.
type reference struct {
	table string // harness Table.ID
	quote string // the note fragment that quotes it
	nth   int    // its position among the fragment's numbers
	row   string // first column of the reproducing row
	col   string // column of the reproduced value
	// per, when set, makes the reproduced value row ÷ per and the quoted
	// number a percentage gain of row over per.
	per   string
	paper float64
}

// references are the 36 paper numbers behind paper_err: Table IV ×8,
// Figure 5 ×4, Table V ×12, Table VI ×4, Table VII ×6 and §VI.D ×2.
var references = []reference{
	{"Table IV", "TPC-C 590, TATP 167, queue 52, hash 58, sdg 56, sps 63, btree 61, rbtree 53", 0, "tpcc", "write-set lines", "", 590},
	{"Table IV", "TPC-C 590, TATP 167, queue 52, hash 58, sdg 56, sps 63, btree 61, rbtree 53", 1, "tatp", "write-set lines", "", 167},
	{"Table IV", "TPC-C 590, TATP 167, queue 52, hash 58, sdg 56, sps 63, btree 61, rbtree 53", 2, "queue", "write-set lines", "", 52},
	{"Table IV", "TPC-C 590, TATP 167, queue 52, hash 58, sdg 56, sps 63, btree 61, rbtree 53", 3, "hash", "write-set lines", "", 58},
	{"Table IV", "TPC-C 590, TATP 167, queue 52, hash 58, sdg 56, sps 63, btree 61, rbtree 53", 4, "sdg", "write-set lines", "", 56},
	{"Table IV", "TPC-C 590, TATP 167, queue 52, hash 58, sdg 56, sps 63, btree 61, rbtree 53", 5, "sps", "write-set lines", "", 63},
	{"Table IV", "TPC-C 590, TATP 167, queue 52, hash 58, sdg 56, sps 63, btree 61, rbtree 53", 6, "btree", "write-set lines", "", 61},
	{"Table IV", "TPC-C 590, TATP 167, queue 52, hash 58, sdg 56, sps 63, btree 61, rbtree 53", 7, "rbtree", "write-set lines", "", 53},

	{"Figure 5", "sdTM 1.20, ATOM 1.35, LogTM-ATOM 1.44, DHTM 1.61", 0, "sdTM", "geo-mean", "", 1.20},
	{"Figure 5", "sdTM 1.20, ATOM 1.35, LogTM-ATOM 1.44, DHTM 1.61", 1, "ATOM", "geo-mean", "", 1.35},
	{"Figure 5", "sdTM 1.20, ATOM 1.35, LogTM-ATOM 1.44, DHTM 1.61", 2, "LogTM-ATOM", "geo-mean", "", 1.44},
	{"Figure 5", "sdTM 1.20, ATOM 1.35, LogTM-ATOM 1.44, DHTM 1.61", 3, "DHTM", "geo-mean", "", 1.61},

	{"Table V", "sdTM 68/19/23/27/37/46", 0, "sdTM", "queue", "", 68},
	{"Table V", "sdTM 68/19/23/27/37/46", 1, "sdTM", "hash", "", 19},
	{"Table V", "sdTM 68/19/23/27/37/46", 2, "sdTM", "sdg", "", 23},
	{"Table V", "sdTM 68/19/23/27/37/46", 3, "sdTM", "sps", "", 27},
	{"Table V", "sdTM 68/19/23/27/37/46", 4, "sdTM", "btree", "", 37},
	{"Table V", "sdTM 68/19/23/27/37/46", 5, "sdTM", "rbtree", "", 46},
	{"Table V", "DHTM 46/5/13/16/18/26", 0, "DHTM", "queue", "", 46},
	{"Table V", "DHTM 46/5/13/16/18/26", 1, "DHTM", "hash", "", 5},
	{"Table V", "DHTM 46/5/13/16/18/26", 2, "DHTM", "sdg", "", 13},
	{"Table V", "DHTM 46/5/13/16/18/26", 3, "DHTM", "sps", "", 16},
	{"Table V", "DHTM 46/5/13/16/18/26", 4, "DHTM", "btree", "", 18},
	{"Table V", "DHTM 46/5/13/16/18/26", 5, "DHTM", "rbtree", "", 26},

	{"Table VI", "TPC-C — ATOM 1.67, DHTM 1.88", 0, "tpcc", "ATOM", "", 1.67},
	{"Table VI", "TPC-C — ATOM 1.67, DHTM 1.88", 1, "tpcc", "DHTM", "", 1.88},
	{"Table VI", "TATP — ATOM 1.27, DHTM 1.53", 0, "tatp", "ATOM", "", 1.27},
	{"Table VI", "TATP — ATOM 1.27, DHTM 1.53", 1, "tatp", "DHTM", "", 1.53},

	{"Table VII", "NP 2.9/3.0/3.3 and DHTM 1.9/2.4/3.0", 0, "1x", "NP", "", 2.9},
	{"Table VII", "NP 2.9/3.0/3.3 and DHTM 1.9/2.4/3.0", 1, "2x", "NP", "", 3.0},
	{"Table VII", "NP 2.9/3.0/3.3 and DHTM 1.9/2.4/3.0", 2, "10x", "NP", "", 3.3},
	{"Table VII", "NP 2.9/3.0/3.3 and DHTM 1.9/2.4/3.0", 3, "1x", "DHTM", "", 1.9},
	{"Table VII", "NP 2.9/3.0/3.3 and DHTM 1.9/2.4/3.0", 4, "2x", "DHTM", "", 2.4},
	{"Table VII", "NP 2.9/3.0/3.3 and DHTM 1.9/2.4/3.0", 5, "10x", "DHTM", "", 3.0},

	{"Section VI.D", "NP is about 2.2x SO", 0, "NP", "normalized throughput", "", 2.2},
	{"Section VI.D", "gain DHTM ≈16%", 0, "DHTM-instant", "normalized throughput", "DHTM", 1.16},
}

// cellValue reads the rendered number in (row, col) of t and the rounding
// unit it was rendered with ("76%" reads as 76 with unit 1).
func cellValue(t *harness.Table, row, col string) (v, unit float64, err error) {
	ci := -1
	for i, c := range t.Columns {
		if c == col {
			ci = i
		}
	}
	for _, r := range t.Rows {
		if len(r) == 0 || r[0] != row || ci < 0 || ci >= len(r) {
			continue
		}
		s := strings.TrimSuffix(r[ci], "%")
		v, err = strconv.ParseFloat(s, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("%s (%s, %s): %w", t.ID, row, col, err)
		}
		unit = 1
		if _, frac, ok := strings.Cut(s, "."); ok {
			unit = math.Pow(10, -float64(len(frac)))
		}
		return v, unit, nil
	}
	return 0, 0, fmt.Errorf("%s has no cell (%s, %s)", t.ID, row, col)
}

// reproduced returns the simulator's value for ref out of the tables. A
// value that renders as zero is taken as half its rounding unit, so the log
// error stays finite.
func (ref reference) reproduced(tables map[string]*harness.Table) (float64, error) {
	t := tables[ref.table]
	if t == nil {
		return 0, fmt.Errorf("paper_err: no table %q", ref.table)
	}
	v, unit, err := cellValue(t, ref.row, ref.col)
	if err != nil {
		return 0, err
	}
	v = max(v, unit/2)
	if ref.per != "" {
		base, unit, err := cellValue(t, ref.per, ref.col)
		if err != nil {
			return 0, err
		}
		v /= max(base, unit/2)
	}
	return v, nil
}

// paperErr is the mean of |ln(reproduced / paper)| over the references: 0
// when every number matches, ln 2 ≈ 0.69 when they are off by 2× on
// average.
func paperErr(tables []*harness.Table) (float64, error) {
	byID := make(map[string]*harness.Table, len(tables))
	for _, t := range tables {
		byID[t.ID] = t
	}
	var sum float64
	for _, ref := range references {
		v, err := ref.reproduced(byID)
		if err != nil {
			return 0, err
		}
		sum += math.Abs(math.Log(v / ref.paper))
	}
	return sum / float64(len(references)), nil
}
