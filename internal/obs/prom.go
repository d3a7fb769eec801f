package obs

import (
	"io"
	"math"
	"strconv"
	"strings"
)

// Prometheus text exposition (format version 0.0.4), written by hand:
// the container bakes in no client library, and the daemon needs only
// the write half — families of counters, gauges and histograms rendered
// from an already-consistent snapshot.

// PromContentType is the Content-Type of the text exposition format.
const PromContentType = "text/plain; version=0.0.4; charset=utf-8"

// Label is one metric label pair.
type Label struct{ Key, Value string }

// PromWriter renders metric families in the Prometheus text format.
// Errors are sticky: the first write failure is remembered and every
// later call is a no-op, so call sites stay linear and check Err once.
type PromWriter struct {
	w   io.Writer
	buf []byte
	err error
}

// NewPromWriter writes the exposition to w.
func NewPromWriter(w io.Writer) *PromWriter { return &PromWriter{w: w} }

// Err returns the first write error, if any.
func (p *PromWriter) Err() error { return p.err }

func (p *PromWriter) flush() {
	if p.err == nil && len(p.buf) > 0 {
		_, p.err = p.w.Write(p.buf)
	}
	p.buf = p.buf[:0]
}

// Family starts a metric family: the # HELP and # TYPE header lines.
// typ is "counter", "gauge" or "histogram".
func (p *PromWriter) Family(name, typ, help string) {
	if p.err != nil {
		return
	}
	p.buf = append(p.buf, "# HELP "...)
	p.buf = append(p.buf, name...)
	p.buf = append(p.buf, ' ')
	p.buf = append(p.buf, escapeHelp(help)...)
	p.buf = append(p.buf, "\n# TYPE "...)
	p.buf = append(p.buf, name...)
	p.buf = append(p.buf, ' ')
	p.buf = append(p.buf, typ...)
	p.buf = append(p.buf, '\n')
	p.flush()
}

// Sample writes one sample line of the current family.
func (p *PromWriter) Sample(name string, labels []Label, value float64) {
	if p.err != nil {
		return
	}
	p.buf = appendSample(p.buf, name, labels, value)
	p.flush()
}

// HistogramSamples writes one labeled series of an already-started
// histogram family: the cumulative _bucket series (le up to +Inf), _sum
// and _count.
func (p *PromWriter) HistogramSamples(name string, labels []Label, snap HistogramSnapshot) {
	if p.err != nil {
		return
	}
	cum := int64(0)
	bl := make([]Label, len(labels), len(labels)+1)
	copy(bl, labels)
	bl = append(bl, Label{})
	for _, b := range snap.Buckets {
		cum += b.Count
		bl[len(bl)-1] = Label{Key: "le", Value: formatLE(b.LE)}
		p.buf = appendSample(p.buf, name+"_bucket", bl, float64(cum))
	}
	p.buf = appendSample(p.buf, name+"_sum", labels, snap.Sum)
	p.buf = appendSample(p.buf, name+"_count", labels, float64(snap.Count))
	p.flush()
}

func appendSample(buf []byte, name string, labels []Label, value float64) []byte {
	buf = append(buf, name...)
	if len(labels) > 0 {
		buf = append(buf, '{')
		for i, l := range labels {
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = append(buf, l.Key...)
			buf = append(buf, '=', '"')
			buf = append(buf, escapeLabel(l.Value)...)
			buf = append(buf, '"')
		}
		buf = append(buf, '}')
	}
	buf = append(buf, ' ')
	buf = strconv.AppendFloat(buf, value, 'g', -1, 64)
	buf = append(buf, '\n')
	return buf
}

// formatLE renders a bucket bound the way Prometheus expects: "+Inf"
// for the last bucket, which snapshots carry as LE 0 (the JSON-safe
// convention — JSON cannot represent infinity).
func formatLE(v float64) string {
	if v == 0 || math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeLabel(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	var b strings.Builder
	for _, r := range s {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

func escapeHelp(s string) string {
	if !strings.ContainsAny(s, "\\\n") {
		return s
	}
	var b strings.Builder
	for _, r := range s {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}
