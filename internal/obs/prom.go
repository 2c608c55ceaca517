package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Prometheus text-format (v0.0.4) exposition for a Snapshot.
//
// Registry keys carry their labels explicitly, as Labeled composes them:
// `run_phase_seconds{engine="native",phase="execute"}` — the base name and
// label set pass through verbatim.
//
// Histograms emit the conventional `_bucket` (cumulative, with `le`),
// `_sum` and `_count` series. Families are emitted in sorted order with
// one # TYPE line each, so the output is stable for golden tests.

// PromContentType is the Content-Type of the exposition format written
// by WritePrometheus.
const PromContentType = "text/plain; version=0.0.4; charset=utf-8"

// Labeled composes a registry key carrying an explicit label set:
// Labeled("run_phase_seconds", "engine", "native", "phase", "execute")
// yields `run_phase_seconds{engine="native",phase="execute"}`. Label
// order is the argument order; callers keep it stable so one label set
// maps to one key. Rendering allocates, so a series observed on a hot
// path over a closed label set should keep its rendered key.
func Labeled(base string, kv ...string) string {
	var b strings.Builder
	b.WriteString(base)
	b.WriteByte('{')
	for i := 0; i+1 < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[i])
		b.WriteByte('=')
		b.WriteString(strconv.Quote(escapeLabelValue(kv[i+1])))
	}
	b.WriteByte('}')
	return b.String()
}

// FamilyName reduces a registry key to its Prometheus family name: the
// sanitized base with any label block stripped. The metric-name golden
// test pins these.
func FamilyName(key string) string { return splitKey(key).family }

// promSeries is one sample series: a family base name plus a rendered
// label block ("" or `{k="v",...}`).
type promSeries struct {
	family string
	labels string
}

// splitKey splits a registry key into its family name and rendered label
// block.
func splitKey(key string) promSeries {
	if i := strings.IndexByte(key, '{'); i >= 0 && strings.HasSuffix(key, "}") {
		return promSeries{family: sanitizeName(key[:i]), labels: key[i:]}
	}
	return promSeries{family: sanitizeName(key)}
}

// sanitizeName maps a registry name onto the Prometheus metric-name
// alphabet [a-zA-Z0-9_:], replacing everything else with '_'.
func sanitizeName(s string) string {
	ok := true
	for i := 0; i < len(s); i++ {
		if !nameByteOK(s[i], i) {
			ok = false
			break
		}
	}
	if ok {
		return s
	}
	b := []byte(s)
	for i := range b {
		if !nameByteOK(b[i], i) {
			b[i] = '_'
		}
	}
	return string(b)
}

func nameByteOK(c byte, pos int) bool {
	switch {
	case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		return true
	case c >= '0' && c <= '9':
		return pos > 0
	}
	return false
}

// escapeLabelValue escapes backslash, double quote and newline per the
// text-format rules. The %q verb at the call site adds the quotes and
// escapes the first two already, so only newlines need help — but %q
// turns them into \n too. It exists to make the contract explicit and to
// strip other control characters defensively.
func escapeLabelValue(s string) string {
	return strings.Map(func(r rune) rune {
		if r < 0x20 && r != '\n' && r != '\t' {
			return -1
		}
		return r
	}, s)
}

// withLe appends an le label to a rendered label block.
func withLe(labels, le string) string {
	if labels == "" {
		return `{le="` + le + `"}`
	}
	return labels[:len(labels)-1] + `,le="` + le + `"}`
}

// formatBound renders a bucket upper bound the way Prometheus clients
// do: shortest float representation.
func formatBound(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus writes the snapshot in the Prometheus text exposition
// format, version 0.0.4. Counters are emitted as counter families;
// histograms as histogram families with cumulative _bucket series plus
// _sum and _count.
func (s *Snapshot) WritePrometheus(w io.Writer) error {
	type sample struct {
		series promSeries
		value  string
	}
	counterFams := map[string][]sample{}
	for key, v := range s.Counters {
		ps := splitKey(key)
		counterFams[ps.family] = append(counterFams[ps.family], sample{ps, strconv.FormatUint(v, 10)})
	}
	histFams := map[string][]string{} // family → keys
	for key := range s.Histograms {
		fam := splitKey(key).family
		histFams[fam] = append(histFams[fam], key)
	}

	var fams []string
	for f := range counterFams {
		fams = append(fams, f)
	}
	for f := range histFams {
		if _, dup := counterFams[f]; !dup {
			fams = append(fams, f)
		}
	}
	sort.Strings(fams)

	bw := &errWriter{w: w}
	for _, fam := range fams {
		if samples, ok := counterFams[fam]; ok {
			bw.printf("# TYPE %s counter\n", fam)
			sort.Slice(samples, func(i, j int) bool { return samples[i].series.labels < samples[j].series.labels })
			for _, smp := range samples {
				bw.printf("%s%s %s\n", fam, smp.series.labels, smp.value)
			}
			continue
		}
		keys := histFams[fam]
		sort.Slice(keys, func(i, j int) bool { return splitKey(keys[i]).labels < splitKey(keys[j]).labels })
		bw.printf("# TYPE %s histogram\n", fam)
		for _, key := range keys {
			h := s.Histograms[key]
			labels := splitKey(key).labels
			var cum uint64
			for i, bound := range h.Bounds {
				cum += h.Counts[i]
				bw.printf("%s_bucket%s %d\n", fam, withLe(labels, formatBound(bound)), cum)
			}
			bw.printf("%s_bucket%s %d\n", fam, withLe(labels, "+Inf"), h.Count)
			bw.printf("%s_sum%s %s\n", fam, labels, strconv.FormatFloat(h.Sum, 'g', -1, 64))
			bw.printf("%s_count%s %d\n", fam, labels, h.Count)
		}
	}
	return bw.err
}

// errWriter folds write errors so the emit loop stays linear.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) printf(format string, args ...any) {
	if e.err != nil {
		return
	}
	_, e.err = fmt.Fprintf(e.w, format, args...)
}
