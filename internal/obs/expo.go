package obs

import (
	"bufio"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
)

// WriteFile writes the registry in the text exposition format to a new
// file at path — the -metrics dump of every CLI.
func (r *Registry) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.WriteText(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// WriteText renders the registry in the Prometheus text exposition format
// (version 0.0.4): families sorted by name, series sorted by label
// signature, histogram buckets cumulative with the conventional _bucket/
// _sum/_count triplet. The output is deterministic for a fixed registry
// state, so it is diffable and golden-testable.
func (r *Registry) WriteText(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, f := range r.snapshot() {
		bw.WriteString("# HELP ")
		bw.WriteString(f.name)
		bw.WriteByte(' ')
		bw.WriteString(f.help)
		bw.WriteString("\n# TYPE ")
		bw.WriteString(f.name)
		bw.WriteByte(' ')
		bw.WriteString(f.kind.String())
		bw.WriteByte('\n')
		for _, s := range f.series {
			switch f.kind {
			case kindCounter:
				writeSample(bw, f.name, "", s.sig, "", formatUint(s.counter.Value()))
			case kindGauge:
				writeSample(bw, f.name, "", s.sig, "", formatFloat(s.gauge.Value()))
			case kindHistogram:
				h := s.hist
				var cum uint64
				for i, ub := range h.upper {
					cum += h.counts[i].Load()
					writeSample(bw, f.name, "_bucket", s.sig, `le="`+formatFloat(ub)+`"`, formatUint(cum))
				}
				cum += h.counts[len(h.upper)].Load()
				writeSample(bw, f.name, "_bucket", s.sig, `le="+Inf"`, formatUint(cum))
				writeSample(bw, f.name, "_sum", s.sig, "", formatFloat(h.Sum()))
				writeSample(bw, f.name, "_count", s.sig, "", formatUint(cum))
			}
		}
	}
	return bw.Flush()
}

// snapshot copies the family table under the lock so rendering happens
// outside it. Series values are read live (atomics), which is the usual
// Prometheus consistency model: a scrape is not a transaction.
func (r *Registry) snapshot() []*family {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		ff := &family{name: f.name, help: f.help, kind: f.kind, buckets: f.buckets}
		ff.series = append(ff.series, f.series...)
		fams = append(fams, ff)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	for _, f := range fams {
		sort.Slice(f.series, func(i, j int) bool { return f.series[i].sig < f.series[j].sig })
	}
	return fams
}

// writeSample writes one exposition line: name[suffix]{labels[,extra]} value.
func writeSample(bw *bufio.Writer, name, suffix, sig, extra, value string) {
	bw.WriteString(name)
	bw.WriteString(suffix)
	if sig != "" || extra != "" {
		bw.WriteByte('{')
		bw.WriteString(sig)
		if sig != "" && extra != "" {
			bw.WriteByte(',')
		}
		bw.WriteString(extra)
		bw.WriteByte('}')
	}
	bw.WriteByte(' ')
	bw.WriteString(value)
	bw.WriteByte('\n')
}

func formatUint(v uint64) string { return strconv.FormatUint(v, 10) }

// formatFloat renders floats the way Prometheus clients do: shortest
// round-trip representation, integers without a decimal point.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Handler returns an http.Handler serving the registry as a Prometheus
// scrape endpoint.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WriteText(w)
	})
}
