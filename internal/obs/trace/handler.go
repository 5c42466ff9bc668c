package trace

import (
	"encoding/json"
	"fmt"
	"html"
	"net/http"
	"sort"
	"strings"
	"time"
)

// SpanView is the serialized form of one span in a trace tree.
type SpanView struct {
	SpanID      string       `json:"span_id"`
	ParentID    string       `json:"parent_id,omitempty"`
	Name        string       `json:"name"`
	OffsetMS    float64      `json:"offset_ms"` // start relative to trace start
	DurationMS  float64      `json:"duration_ms"`
	Failed      bool         `json:"failed,omitempty"`
	Annotations []Annotation `json:"annotations,omitempty"`
	Children    []*SpanView  `json:"children,omitempty"`
}

// TraceView is the serialized form of one retained trace.
type TraceView struct {
	TraceID      string      `json:"trace_id"`
	Route        string      `json:"route"`
	Start        string      `json:"start"`
	DurationMS   float64     `json:"duration_ms"`
	Errored      bool        `json:"errored"`
	SpanCount    int         `json:"span_count"`
	DroppedSpans int         `json:"dropped_spans,omitempty"`
	Root         *SpanView   `json:"root,omitempty"`
	Orphans      []*SpanView `json:"orphans,omitempty"` // parent evicted past maxSpans
}

// View materializes the trace as a span tree, safe to serialize.
func (t *Trace) View() TraceView {
	t.mu.Lock()
	spans := make([]*Span, len(t.spans))
	copy(spans, t.spans)
	dropped := t.dropped
	errored := t.err
	root := t.root
	t.mu.Unlock()

	views := make(map[string]*SpanView, len(spans))
	order := make([]*SpanView, 0, len(spans))
	for _, sp := range spans {
		sp.mu.Lock()
		v := &SpanView{
			SpanID:      sp.spanID,
			ParentID:    sp.parentID,
			Name:        sp.name,
			OffsetMS:    ms(sp.start.Sub(t.start)),
			Failed:      sp.failed,
			Annotations: append([]Annotation(nil), sp.annots...),
		}
		end := sp.end
		sp.mu.Unlock()
		if end.IsZero() {
			v.DurationMS = ms(time.Since(sp.start))
		} else {
			v.DurationMS = ms(end.Sub(sp.start))
		}
		views[v.SpanID] = v
		order = append(order, v)
	}

	tv := TraceView{
		TraceID:      t.id,
		Route:        t.route,
		Start:        t.start.UTC().Format(time.RFC3339Nano),
		Errored:      errored,
		SpanCount:    len(spans),
		DroppedSpans: dropped,
	}
	if root != nil {
		tv.DurationMS = ms(root.Duration())
	}
	rootID := ""
	if root != nil {
		rootID = root.spanID
	}
	for _, v := range order {
		if v.SpanID == rootID {
			tv.Root = v
			continue
		}
		if parent, ok := views[v.ParentID]; ok && v.ParentID != "" {
			parent.Children = append(parent.Children, v)
		} else {
			tv.Orphans = append(tv.Orphans, v)
		}
	}
	return tv
}

// Handler serves the flight recorder: GET /debug/traces (route-grouped
// index) and GET /debug/traces/{trace_id} (span tree). Both answer JSON
// by default and a minimal HTML waterfall with ?format=html. Mount it
// on the private debug listener only — traces carry route shapes and
// annotation values.
func (tc *Tracer) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			w.Header().Set("Allow", http.MethodGet)
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		rest := strings.TrimPrefix(r.URL.Path, "/debug/traces")
		rest = strings.Trim(rest, "/")
		wantHTML := r.URL.Query().Get("format") == "html"
		if rest == "" {
			tc.serveIndex(w, wantHTML)
			return
		}
		t := tc.Lookup(rest)
		if t == nil {
			http.Error(w, "trace not found (never recorded, or evicted from the flight recorder)", http.StatusNotFound)
			return
		}
		tc.serveTrace(w, t, wantHTML)
	})
}

func (tc *Tracer) serveIndex(w http.ResponseWriter, wantHTML bool) {
	snap := tc.Snapshot()
	if !wantHTML {
		writeJSON(w, map[string]any{"routes": snap})
		return
	}
	var b strings.Builder
	b.WriteString("<!DOCTYPE html><html><head><title>goldrec traces</title></head><body>")
	b.WriteString("<h1>Flight recorder</h1>")
	for _, rs := range snap {
		fmt.Fprintf(&b, "<h2>%s</h2><p>%d traced · %d slow (threshold %.0fms) · %d errored · slowest %.1fms</p>",
			html.EscapeString(rs.Route), rs.Total, rs.Slow, rs.ThresholdMS, rs.Errored, rs.SlowestMS)
		writeStubList(&b, "errored", rs.ErrTraces)
		writeStubList(&b, "slow", rs.SlowTraces)
		writeStubList(&b, "recent", rs.Recent)
	}
	b.WriteString("</body></html>")
	writeHTML(w, b.String())
}

func writeStubList(b *strings.Builder, label string, stubs []TraceStub) {
	if len(stubs) == 0 {
		return
	}
	fmt.Fprintf(b, "<h3>%s</h3><ul>", label)
	for _, st := range stubs {
		fmt.Fprintf(b, `<li><a href="/debug/traces/%s?format=html">%s</a> %.1fms · %d spans</li>`,
			html.EscapeString(st.TraceID), html.EscapeString(st.TraceID), st.DurationMS, st.Spans)
	}
	b.WriteString("</ul>")
}

func (tc *Tracer) serveTrace(w http.ResponseWriter, t *Trace, wantHTML bool) {
	view := t.View()
	if !wantHTML {
		writeJSON(w, view)
		return
	}
	total := view.DurationMS
	if total <= 0 {
		total = 1
	}
	var b strings.Builder
	fmt.Fprintf(&b, "<!DOCTYPE html><html><head><title>trace %s</title></head><body>", html.EscapeString(view.TraceID))
	fmt.Fprintf(&b, "<h1>%s · %.1fms</h1><p>trace %s · %d spans",
		html.EscapeString(view.Route), view.DurationMS, html.EscapeString(view.TraceID), view.SpanCount)
	if view.DroppedSpans > 0 {
		fmt.Fprintf(&b, " (+%d dropped)", view.DroppedSpans)
	}
	b.WriteString("</p><table>")
	if view.Root != nil {
		writeWaterfallRow(&b, view.Root, 0, total)
	}
	for _, o := range view.Orphans {
		writeWaterfallRow(&b, o, 0, total)
	}
	b.WriteString("</table></body></html>")
	writeHTML(w, b.String())
}

// writeWaterfallRow renders one span as an indented label plus a bar
// positioned by start offset and sized by duration, both as percentages
// of the trace duration — a waterfall without any JS or CSS files.
func writeWaterfallRow(b *strings.Builder, v *SpanView, depth int, totalMS float64) {
	left := v.OffsetMS / totalMS * 100
	width := v.DurationMS / totalMS * 100
	if width < 0.5 {
		width = 0.5
	}
	if left > 99.5 {
		left = 99.5
	}
	color := "#4a90d9"
	if v.Failed {
		color = "#d94a4a"
	}
	var ann strings.Builder
	for _, a := range v.Annotations {
		fmt.Fprintf(&ann, " %s=%s", a.Key, a.Value)
	}
	fmt.Fprintf(b,
		`<tr><td style="padding-left:%dem;white-space:nowrap">%s</td>`+
			`<td style="width:60%%"><div style="margin-left:%.1f%%;width:%.1f%%;background:%s;height:0.8em"></div></td>`+
			`<td>%.2fms</td><td><small>%s</small></td></tr>`,
		depth, html.EscapeString(v.Name), left, width, color, v.DurationMS, html.EscapeString(ann.String()))
	children := append([]*SpanView(nil), v.Children...)
	sort.SliceStable(children, func(i, j int) bool { return children[i].OffsetMS < children[j].OffsetMS })
	for _, c := range children {
		writeWaterfallRow(b, c, depth+1, totalMS)
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeHTML(w http.ResponseWriter, s string) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	_, _ = w.Write([]byte(s))
}
