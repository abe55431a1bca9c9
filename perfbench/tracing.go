package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"

	"powder/internal/obs/trace"
)

// selfTime sums, per span name, each span's duration minus the part of
// its interval covered by its children (clipped to the span, overlaps
// counted once). Open spans are ignored.
func selfTime(spans []trace.Record) map[string]float64 {
	type key struct {
		trace string
		id    trace.SpanID
	}
	children := map[key][]trace.Record{}
	for _, r := range spans {
		if r.Parent != 0 && !r.End.IsZero() {
			k := key{r.Trace, r.Parent}
			children[k] = append(children[k], r)
		}
	}
	self := map[string]float64{}
	for _, r := range spans {
		if r.End.IsZero() {
			continue
		}
		kids := children[key{r.Trace, r.ID}]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start.Before(kids[j].Start) })
		covered := 0.0
		cur := r.Start
		for _, c := range kids {
			s, e := c.Start, c.End
			if s.Before(cur) {
				s = cur
			}
			if e.After(r.End) {
				e = r.End
			}
			if e.After(s) {
				covered += e.Sub(s).Seconds()
				cur = e
			}
		}
		self[jobIDs.ReplaceAllString(r.Name, "/{id}")] += r.Seconds() - covered
	}
	return self
}

// jobIDs matches the job IDs inside client request span names
// ("GET /v1/jobs/j000012"), which the table folds into one row.
var jobIDs = regexp.MustCompile(`/j[0-9]+`)

// spanQuantile returns the q-quantile duration, in milliseconds, of the
// completed spans with the given name.
func spanQuantile(spans []trace.Record, name string, q float64) float64 {
	var d []float64
	for _, r := range spans {
		if r.Name == name && !r.End.IsZero() {
			d = append(d, r.Seconds()*1e3)
		}
	}
	return quantile(d, q)
}

// writeSelfTimes prints the self-time table, largest first.
func writeSelfTimes(w io.Writer, self map[string]float64) {
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	fmt.Fprintf(w, "self time by span:\n")
	for _, n := range names {
		fmt.Fprintf(w, "  %-28s %10.4f s\n", n, self[n])
	}
}

// writePerfetto writes the spans as Chrome/Perfetto trace-event JSON.
func writePerfetto(path string, spans []trace.Record) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := trace.WritePerfetto(bw, spans); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
