package harness

import (
	"fmt"
	"math"

	"dhtm/internal/config"
	"dhtm/internal/registry"
	"dhtm/internal/runner"
)

// Every experiment below is a (plan, reduce) pair. The plan lays out the
// experiment's grid of independent simulation cells; the reducer renders the
// paper's table by looking cells up by ID. Reducers therefore never depend
// on execution order, which is what lets the runner fan the grid out across
// a worker pool while keeping the rendered table byte-identical to a serial
// run.

// isOLTP reports whether a workload uses the OLTP transaction budget.
func isOLTP(name string) bool {
	w, ok := registry.LookupWorkload(name)
	return ok && w.OLTP
}

// microNames lists the six micro-benchmarks in paper plot order.
func microNames() []string { return registry.MicroWorkloadNames() }

// table4Names lists Table IV's workloads in paper order.
func table4Names() []string {
	return append(registry.WorkloadNamesByTag(registry.TagOLTP), microNames()...)
}

// planTable4 lays out Table IV: every workload once, on the volatile NP
// design so logging does not perturb the footprint.
func planTable4(o Options) runner.Plan {
	p := runner.Plan{Name: "table4"}
	for _, name := range table4Names() {
		p.Add(o.cell(DesignNP, name, isOLTP(name), runner.Overrides{}))
	}
	return p
}

// reduceTable4 renders the mean write-set size, in cache lines, of every
// workload.
func reduceTable4(o Options, rs *runner.ResultSet) (*Table, error) {
	t := &Table{
		ID:      "Table IV",
		Title:   "Workloads and their write-set sizes (# cache lines)",
		Columns: []string{"workload", "write-set lines", "read-set lines", "paper"},
		Notes: []string{
			"paper values: TPC-C 590, TATP 167, queue 52, hash 58, sdg 56, sps 63, btree 61, rbtree 53",
			"the shape to preserve is OLTP >> micro-benchmarks, with TPC-C exceeding the 32 KB L1",
		},
	}
	paper := map[string]string{
		"tpcc": "590", "tatp": "167", "queue": "52", "hash": "58",
		"sdg": "56", "sps": "63", "btree": "61", "rbtree": "53",
	}
	for _, name := range table4Names() {
		res, err := rs.Run(DesignNP + "/" + name)
		if err != nil {
			return nil, fmt.Errorf("table4: %s: %w", name, err)
		}
		t.Rows = append(t.Rows, []string{
			name,
			fmt.Sprintf("%.0f", res.Stats.MeanWriteSetLines()),
			fmt.Sprintf("%.0f", res.Stats.MeanReadSetLines()),
			paper[name],
		})
	}
	return t, nil
}

// addMicroGrid adds one cell per (design, micro-benchmark) pair.
func addMicroGrid(p *runner.Plan, o Options, designs []string) {
	for _, d := range designs {
		for _, w := range microNames() {
			p.Add(o.cell(d, w, false, runner.Overrides{}))
		}
	}
}

// microThroughput reads the throughput of every micro-benchmark for a design
// out of a completed grid.
func microThroughput(rs *runner.ResultSet, design string) (map[string]float64, error) {
	th := make(map[string]float64)
	for _, w := range microNames() {
		res, err := rs.Run(design + "/" + w)
		if err != nil {
			return nil, err
		}
		th[w] = res.Throughput()
	}
	return th, nil
}

// fig5Designs lists Figure 5's designs in paper order.
func fig5Designs() []string {
	return []string{DesignSO, DesignSdTM, DesignATOM, DesignLogTMATOM, DesignDHTM}
}

// planFigure5 lays out Figure 5: every evaluated design on every
// micro-benchmark.
func planFigure5(o Options) runner.Plan {
	p := runner.Plan{Name: "fig5"}
	addMicroGrid(&p, o, fig5Designs())
	return p
}

// reduceFigure5 renders the transaction throughput of sdTM, ATOM, LogTM-ATOM
// and DHTM on the micro-benchmarks, normalized to SO.
func reduceFigure5(o Options, rs *runner.ResultSet) (*Table, error) {
	so, err := microThroughput(rs, DesignSO)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "Figure 5",
		Title:   "Transaction throughput normalized to SO",
		Columns: append([]string{"design"}, append(microNames(), "geo-mean")...),
		Notes: []string{
			"paper averages: sdTM 1.20, ATOM 1.35, LogTM-ATOM 1.44, DHTM 1.61",
			"expected ordering: SO < sdTM < ATOM < LogTM-ATOM < DHTM",
		},
	}
	for _, d := range fig5Designs() {
		th, err := microThroughput(rs, d)
		if err != nil {
			return nil, err
		}
		row := []string{d}
		prod, n := 1.0, 0
		for _, w := range microNames() {
			ratio := ratioTo(th[w], so[w])
			row = append(row, fmtRatio(ratio))
			prod *= ratio
			n++
		}
		row = append(row, fmtRatio(geoMean(prod, n)))
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// planTable5 lays out Table V: sdTM and DHTM on every micro-benchmark.
func planTable5(o Options) runner.Plan {
	p := runner.Plan{Name: "table5"}
	addMicroGrid(&p, o, []string{DesignSdTM, DesignDHTM})
	return p
}

// reduceTable5 renders the abort rates of sdTM and DHTM.
func reduceTable5(o Options, rs *runner.ResultSet) (*Table, error) {
	t := &Table{
		ID:      "Table V",
		Title:   "Abort rates (%) for sdTM and DHTM",
		Columns: append([]string{"design"}, append(microNames(), "mean")...),
		Notes: []string{
			"paper: sdTM 68/19/23/27/37/46 (avg 37), DHTM 46/5/13/16/18/26 (avg 21)",
			"expected shape: DHTM aborts less than sdTM on every workload; queue is the worst case",
		},
	}
	for _, d := range []string{DesignSdTM, DesignDHTM} {
		row := []string{d}
		var sum float64
		for _, w := range microNames() {
			res, err := rs.Run(d + "/" + w)
			if err != nil {
				return nil, err
			}
			rate := res.Stats.AbortRate()
			row = append(row, fmtPercent(rate))
			sum += rate
		}
		row = append(row, fmtPercent(sum/float64(len(microNames()))))
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// fig6BufferSizes lists the log-buffer sweep points of Figure 6.
func fig6BufferSizes() []int { return []int{4, 8, 16, 32, 64, 128} }

// planFigure6 lays out Figure 6: the SO baseline on hash plus DHTM on hash
// at each log-buffer size.
func planFigure6(o Options) runner.Plan {
	p := runner.Plan{Name: "fig6"}
	p.Add(o.cell(DesignSO, "hash", false, runner.Overrides{}))
	for _, size := range fig6BufferSizes() {
		p.Add(fig6Cell(o, size))
	}
	return p
}

// fig6Cell is Figure 6's DHTM cell at one log-buffer size, named by its
// override term.
func fig6Cell(o Options, size int) runner.Cell {
	c := o.cell(DesignDHTM, "hash", false, runner.Overrides{LogBufferEntries: size})
	c.ID += "/" + c.Term(runner.AxisLogBuf)
	return c
}

// reduceFigure6 renders DHTM throughput on hash as a function of the
// log-buffer size, normalized to SO.
func reduceFigure6(o Options, rs *runner.ResultSet) (*Table, error) {
	soRes, err := rs.Run(DesignSO + "/hash")
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "Figure 6",
		Title:   "DHTM throughput on hash vs log-buffer size (normalized to SO)",
		Columns: []string{"log-buffer entries", "normalized throughput", "log bytes / tx"},
		Notes: []string{
			"paper: throughput rises with buffer size, saturates at 64 entries, dips slightly at 128",
			"small buffers waste bandwidth on un-coalesced records; very large buffers push log writes into the commit path",
		},
	}
	for _, size := range fig6BufferSizes() {
		res, err := rs.Run(fig6Cell(o, size).ID)
		if err != nil {
			return nil, err
		}
		logPerTx := float64(res.Stats.LogBytes) / float64(res.Committed)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", size),
			fmtRatio(ratioTo(res.Throughput(), soRes.Throughput())),
			fmt.Sprintf("%.0f", logPerTx),
		})
	}
	return t, nil
}

// planTable6 lays out Table VI: SO, ATOM and DHTM on both OLTP workloads.
func planTable6(o Options) runner.Plan {
	p := runner.Plan{Name: "table6"}
	for _, w := range []string{"tpcc", "tatp"} {
		for _, d := range []string{DesignSO, DesignATOM, DesignDHTM} {
			p.Add(o.cell(d, w, true, runner.Overrides{}))
		}
	}
	return p
}

// reduceTable6 renders TPC-C and TATP throughput of ATOM and DHTM normalized
// to SO.
func reduceTable6(o Options, rs *runner.ResultSet) (*Table, error) {
	t := &Table{
		ID:      "Table VI",
		Title:   "OLTP transaction throughput normalized to SO",
		Columns: []string{"workload", "SO", "ATOM", "DHTM"},
		Notes: []string{
			"paper: TPC-C — ATOM 1.67, DHTM 1.88; TATP — ATOM 1.27, DHTM 1.53",
			"expected ordering on both workloads: SO < ATOM < DHTM",
		},
	}
	for _, w := range []string{"tpcc", "tatp"} {
		ths := make(map[string]float64)
		for _, d := range []string{DesignSO, DesignATOM, DesignDHTM} {
			res, err := rs.Run(d + "/" + w)
			if err != nil {
				return nil, fmt.Errorf("table6: %s/%s: %w", d, w, err)
			}
			ths[d] = res.Throughput()
		}
		t.Rows = append(t.Rows, []string{
			w,
			fmtRatio(1.0),
			fmtRatio(ratioTo(ths[DesignATOM], ths[DesignSO])),
			fmtRatio(ratioTo(ths[DesignDHTM], ths[DesignSO])),
		})
	}
	return t, nil
}

// table7Scales lists the bandwidth sweep points of Table VII.
func table7Scales() []float64 { return []float64{1, 2, 10} }

// planTable7 lays out Table VII: SO, NP and DHTM on hash at each memory
// bandwidth scale.
func planTable7(o Options) runner.Plan {
	p := runner.Plan{Name: "table7"}
	for _, scale := range table7Scales() {
		for _, d := range []string{DesignSO, DesignNP, DesignDHTM} {
			c := o.cell(d, "hash", false, runner.Overrides{BandwidthScale: scale})
			c.ID += fmt.Sprintf("/bw=%gx", scale)
			p.Add(c)
		}
	}
	return p
}

// reduceTable7 renders NP and DHTM throughput on hash, normalized to SO,
// as the memory bandwidth is scaled.
func reduceTable7(o Options, rs *runner.ResultSet) (*Table, error) {
	t := &Table{
		ID:      "Table VII",
		Title:   "Throughput normalized to SO on hash with varying memory bandwidth",
		Columns: []string{"bandwidth", "NP", "DHTM", "gap"},
		Notes: []string{
			"paper: NP 2.9/3.0/3.3 and DHTM 1.9/2.4/3.0 at 1x/2x/10x",
			"expected shape: the NP-DHTM gap narrows as bandwidth grows (durability is bandwidth-bound)",
		},
	}
	for _, scale := range table7Scales() {
		ths := make(map[string]float64)
		for _, d := range []string{DesignSO, DesignNP, DesignDHTM} {
			res, err := rs.Run(fmt.Sprintf("%s/hash/bw=%gx", d, scale))
			if err != nil {
				return nil, fmt.Errorf("table7: %s@%gx: %w", d, scale, err)
			}
			ths[d] = res.Throughput()
		}
		np := ratioTo(ths[DesignNP], ths[DesignSO])
		dh := ratioTo(ths[DesignDHTM], ths[DesignSO])
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%gx", scale),
			fmtRatio(np),
			fmtRatio(dh),
			fmtRatio(ratioTo(np, dh)),
		})
	}
	return t, nil
}

// durabilityDesigns lists the §VI.D comparison designs in report order.
func durabilityDesigns() []string {
	return []string{DesignSO, DesignDHTM, DesignDHTMInstant, DesignNP}
}

// planDurability lays out the §VI.D grid: SO, DHTM, idealised DHTM and NP on
// every micro-benchmark.
func planDurability(o Options) runner.Plan {
	p := runner.Plan{Name: "durability"}
	addMicroGrid(&p, o, durabilityDesigns())
	return p
}

// reduceDurability renders the throughput of NP and of an idealised DHTM
// whose log/data writes are instantaneous, relative to SO and DHTM, averaged
// over the micro-benchmarks.
func reduceDurability(o Options, rs *runner.ResultSet) (*Table, error) {
	so, err := microThroughput(rs, DesignSO)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "Section VI.D",
		Title:   "The cost of atomic durability (micro-benchmark geo-means, normalized to SO)",
		Columns: []string{"design", "normalized throughput"},
		Notes: []string{
			"paper: NP is about 2.2x SO (≈59% above DHTM); instantaneous log/data writes gain DHTM ≈16%",
			"expected ordering: DHTM < DHTM-instant < NP",
		},
	}
	for _, d := range durabilityDesigns() {
		th, err := microThroughput(rs, d)
		if err != nil {
			return nil, err
		}
		prod, n := 1.0, 0
		for _, w := range microNames() {
			prod *= ratioTo(th[w], so[w])
			n++
		}
		t.Rows = append(t.Rows, []string{d, fmtRatio(geoMean(prod, n))})
	}
	return t, nil
}

// ablationWorkloads lists the workloads the ablations are measured on.
func ablationWorkloads() []string { return []string{"hash", "tpcc"} }

// ablationVariant is one DHTM design-choice variant: a DHTM design under a
// conflict policy.
type ablationVariant struct {
	name   string
	design string
	policy config.ConflictPolicy
}

// ablationVariants lists the DHTM design-choice variants. The baseline row
// reuses the full-DHTM cells, so its ratio renders as exactly 1.00.
func ablationVariants() []ablationVariant {
	return []ablationVariant{
		{"DHTM (baseline)", DesignDHTM, config.FirstWriterWins},
		{"DHTM-L1 (no overflow)", DesignDHTML1, config.FirstWriterWins},
		{"DHTM-nobuf (no coalescing)", DesignDHTMNoBuf, config.FirstWriterWins},
		{"DHTM requester-wins", DesignDHTM, config.RequesterWins},
	}
}

// cell is the variant's cell on workload w. A requester-wins variant's ID
// adds its policy term, which keeps it apart from the baseline cell.
func (v ablationVariant) cell(o Options, w string) runner.Cell {
	c := o.cell(v.design, w, w == "tpcc", runner.Overrides{ConflictPolicy: v.policy})
	if v.policy != config.FirstWriterWins {
		c.ID += "/" + c.Term(runner.AxisPolicy)
	}
	return c
}

// planAblations lays out the ablation grid: each variant on hash and tpcc.
// The baseline variant's cells double as the normalization denominators.
func planAblations(o Options) runner.Plan {
	p := runner.Plan{Name: "ablation"}
	for _, v := range ablationVariants() {
		for _, w := range ablationWorkloads() {
			p.Add(v.cell(o, w))
		}
	}
	return p
}

// reduceAblations renders each variant's throughput normalized to full DHTM.
func reduceAblations(o Options, rs *runner.ResultSet) (*Table, error) {
	t := &Table{
		ID:      "Ablations",
		Title:   "DHTM design ablations (throughput normalized to full DHTM)",
		Columns: []string{"variant", "hash", "tpcc"},
		Notes: []string{
			"DHTM-L1 shows what the LLC-overflow extension buys (largest on OLTP)",
			"DHTM-nobuf shows what log coalescing buys (bandwidth-bound workloads)",
		},
	}
	base := make(map[string]float64)
	for _, w := range ablationWorkloads() {
		res, err := rs.Run(DesignDHTM + "/" + w)
		if err != nil {
			return nil, err
		}
		base[w] = res.Throughput()
	}
	for _, v := range ablationVariants() {
		row := []string{v.name}
		for _, w := range ablationWorkloads() {
			res, err := rs.Run(v.cell(o, w).ID)
			if err != nil {
				return nil, err
			}
			row = append(row, fmtRatio(ratioTo(res.Throughput(), base[w])))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// ratioTo guards against division by zero when normalising throughputs.
func ratioTo(v, base float64) float64 {
	if base == 0 {
		return 0
	}
	return v / base
}

// geoMean finishes a running product of n ratios.
func geoMean(prod float64, n int) float64 {
	if n == 0 || prod <= 0 {
		return 0
	}
	return math.Pow(prod, 1/float64(n))
}
