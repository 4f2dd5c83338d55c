package obs

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Snapshot renders every metric as a deterministic Prometheus-style text
// exposition: one `name value` line per scalar, and for each histogram the
// cumulative `_bucket{le=...}` series followed by `_sum` and `_count`.
// Lines are ordered by metric name (bucket order within a histogram), and
// every value is an exact integer — two registries holding equal metric
// states encode byte-identical snapshots, which is what lets the test suite
// diff a batched run against a sequential one.
func (r *Registry) Snapshot() string {
	var sb strings.Builder
	_, _ = r.WriteTo(&sb)
	return sb.String()
}

// WriteTo streams the Snapshot encoding to w.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	if r == nil {
		return 0, nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()

	units := make([]unit, 0, len(r.counters)+len(r.gauges)+len(r.hists))
	for _, name := range sortedKeys(r.counters) {
		c := r.counters[name]
		n := name
		units = append(units, unit{name, func(w io.Writer) (int, error) {
			return fmt.Fprintf(w, "%s %d\n", n, c.Value())
		}})
	}
	for _, name := range sortedKeys(r.gauges) {
		g := r.gauges[name]
		n := name
		units = append(units, unit{name, func(w io.Writer) (int, error) {
			return fmt.Fprintf(w, "%s %d\n", n, g.Value())
		}})
	}
	for _, name := range sortedKeys(r.hists) {
		h := r.hists[name]
		n := name
		units = append(units, unit{name, func(w io.Writer) (int, error) {
			return writeHistogram(w, n, h)
		}})
	}
	// The kind-wise appends above are each sorted; a final stable sort by
	// name interleaves the kinds deterministically.
	sortUnitsByName(units)

	var total int64
	for _, u := range units {
		n, err := u.render(w)
		total += int64(n)
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// unit is one renderable snapshot entry.
type unit struct {
	name   string
	render func(io.Writer) (int, error)
}

func sortUnitsByName(units []unit) {
	// Insertion sort: the slice is a concatenation of three sorted runs and
	// is nearly sorted already; this also sidesteps sort.Slice's closure
	// allocation on a snapshot path that may run once a second.
	for i := 1; i < len(units); i++ {
		for j := i; j > 0 && units[j].name < units[j-1].name; j-- {
			units[j], units[j-1] = units[j-1], units[j]
		}
	}
}

// writeHistogram emits the cumulative bucket series. A histogram whose name
// already carries labels (`x_ns{stage="rules"}`) folds the le label into the
// existing label set: `x_ns_bucket{stage="rules",le="250"}`.
func writeHistogram(w io.Writer, name string, h *Histogram) (int, error) {
	base, labels := splitLabels(name)
	var total int
	var cum int64
	counts := h.BucketCounts()
	bounds := h.bounds
	emit := func(le string, v int64) error {
		lbl := "le=\"" + le + "\""
		if labels != "" {
			lbl = labels + "," + lbl
		}
		n, err := fmt.Fprintf(w, "%s_bucket{%s} %d\n", base, lbl, v)
		total += n
		return err
	}
	for i, b := range bounds {
		cum += counts[i]
		if err := emit(strconv.FormatInt(b, 10), cum); err != nil {
			return total, err
		}
	}
	cum += counts[len(bounds)]
	if err := emit("+Inf", cum); err != nil {
		return total, err
	}
	n, err := fmt.Fprintf(w, "%s_sum%s %d\n", base, wrapLabels(labels), h.Sum())
	total += n
	if err != nil {
		return total, err
	}
	n, err = fmt.Fprintf(w, "%s_count%s %d\n", base, wrapLabels(labels), cum)
	total += n
	return total, err
}

// splitLabels separates `base{a="b"}` into base and the inner label string.
func splitLabels(name string) (base, labels string) {
	i := strings.IndexByte(name, '{')
	if i < 0 || !strings.HasSuffix(name, "}") {
		return name, ""
	}
	return name[:i], name[i+1 : len(name)-1]
}

func wrapLabels(labels string) string {
	if labels == "" {
		return ""
	}
	return "{" + labels + "}"
}
