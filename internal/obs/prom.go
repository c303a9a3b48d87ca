package obs

import (
	"bufio"
	"io"
	"sort"
	"strconv"
	"strings"
)

// WriteProm renders the registry as Prometheus text exposition
// (version 0.0.4): sorted families, each with # HELP and # TYPE lines,
// histograms as cumulative _bucket{le=...}/_sum/_count series with
// bounds in seconds. The output round-trips through ParseProm, which
// the CI soak and egload use as a strict lint.
func (r *Registry) WriteProm(w io.Writer) error {
	if r == nil {
		return nil
	}
	bw := bufio.NewWriter(w)
	for _, f := range r.snapshot() {
		writeHeader(bw, f)
		switch f.typ {
		case HistogramType:
			writeHistogramFamily(bw, f)
		default:
			for _, s := range f.collect() {
				writeSample(bw, f.name, f.labels, s.LabelValues, "", 0, s.Value)
			}
		}
	}
	return bw.Flush()
}

func writeHeader(w *bufio.Writer, f *family) {
	w.WriteString("# HELP ")
	w.WriteString(f.name)
	w.WriteByte(' ')
	w.WriteString(escapeHelp(f.help))
	w.WriteString("\n# TYPE ")
	w.WriteString(f.name)
	w.WriteByte(' ')
	w.WriteString(f.typ.String())
	w.WriteByte('\n')
}

func writeHistogramFamily(w *bufio.Writer, f *family) {
	vec := f.vec.all()
	keys := make([]string, 0, len(vec))
	for k := range vec {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	bounds := BucketBoundsSeconds()
	for _, k := range keys {
		values := splitLabelValues(k, len(f.labels))
		snap := vec[k].Snapshot()
		var cum uint64
		for i, b := range bounds {
			cum += snap.Counts[i]
			writeSample(w, f.name+"_bucket", f.labels, values, "le", b, float64(cum))
		}
		cum += snap.Counts[len(snap.Counts)-1]
		w.WriteString(f.name + "_bucket")
		writeLabels(w, f.labels, values, "le", "+Inf")
		w.WriteByte(' ')
		w.WriteString(formatValue(float64(cum)))
		w.WriteByte('\n')
		writeSample(w, f.name+"_sum", f.labels, values, "", 0, float64(snap.SumNS)/1e9)
		writeSample(w, f.name+"_count", f.labels, values, "", 0, float64(snap.Count))
	}
}

// writeSample writes one series line. If extraName is non-empty an
// extra numeric label (the histogram le bound) is appended after the
// family labels.
func writeSample(w *bufio.Writer, name string, labels, values []string, extraName string, extraVal float64, v float64) {
	w.WriteString(name)
	extra := ""
	if extraName != "" {
		extra = formatLE(extraVal)
	}
	writeLabels(w, labels, values, extraName, extra)
	w.WriteByte(' ')
	w.WriteString(formatValue(v))
	w.WriteByte('\n')
}

func writeLabels(w *bufio.Writer, names, values []string, extraName, extraVal string) {
	if len(names) == 0 && extraName == "" {
		return
	}
	w.WriteByte('{')
	first := true
	for i, n := range names {
		if !first {
			w.WriteByte(',')
		}
		first = false
		w.WriteString(n)
		w.WriteString(`="`)
		w.WriteString(escapeLabel(values[i]))
		w.WriteByte('"')
	}
	if extraName != "" {
		if !first {
			w.WriteByte(',')
		}
		w.WriteString(extraName)
		w.WriteString(`="`)
		w.WriteString(extraVal)
		w.WriteByte('"')
	}
	w.WriteByte('}')
}

// formatLE renders a bucket bound compactly but losslessly, matching
// what the parser reads back.
func formatLE(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}
