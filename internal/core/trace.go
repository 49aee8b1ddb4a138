package core

import (
	"aomplib/internal/obs"
	"aomplib/internal/weaver"
)

// PrecTrace places span advice just inside the parallel region, so a span
// woven on a region method brackets each worker's share (one slice per
// worker track), and a span on an inner method nests inside its caller's.
const PrecTrace = 98

// TraceAspect marks matched methods as named trace spans: while a trace is
// recording, every call emits a begin/end pair that the Chrome export
// renders as a slice named after the joinpoint, on the calling worker's
// track. Instrumentation stays out of the base program, woven and
// unplugged like any other aspect.
type TraceAspect struct {
	name    string
	matcher weaver.Matcher
}

// TraceSpans binds trace spans to the methods selected by pc.
func TraceSpans(pc string) *TraceAspect {
	return &TraceAspect{name: "TraceSpans", matcher: mustPC(pc)}
}

// Named renames the aspect module.
func (a *TraceAspect) Named(name string) *TraceAspect { a.name = name; return a }

// AspectName implements weaver.Aspect.
func (a *TraceAspect) AspectName() string { return a.name }

// Bindings implements weaver.Aspect.
func (a *TraceAspect) Bindings() []weaver.Binding {
	adv := advice{
		name:        "trace",
		prec:        PrecTrace,
		needsWorker: true,
		wrap: func(jp *weaver.Joinpoint, next weaver.HandlerFunc) weaver.HandlerFunc {
			// The span name is interned once at weave time; the per-call
			// path emits only scalars.
			id := obs.InternName(jp.FQN())
			return func(c *weaver.Call) {
				h := obs.Active()
				if h == nil {
					next(c)
					return
				}
				gid := obs.NoWorker
				if c.Worker != nil {
					gid = c.Worker.ObsID()
				}
				if h.SpanBegin != nil {
					h.SpanBegin(gid, id)
				}
				if h.SpanEnd != nil {
					defer h.SpanEnd(gid, id)
				}
				next(c)
			}
		},
	}
	return []weaver.Binding{{Matcher: a.matcher, Advice: adv}}
}
