package main

import (
	"time"
)

// span is one call into a layer during the traced replay.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`     // replayed operation the span belongs to
	Parent int    `json:"parent"` // index of the enclosing span, -1 for an operation root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// CPU is the thread CPU time the span took; the replay runs on one
	// locked OS thread and every traced call runs on it.
	CPU   int64 `json:"cpu_ns"`
	Steps int   `json:"steps,omitempty"` // solver spans: steps the solver ran
}

// tracer records spans in memory; they are written out when the run ends.
type tracer struct {
	t0    time.Time
	op    int
	spans []span
	open  []int // stack of unfinished spans
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string) int {
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	t.spans = append(t.spans, span{Name: name, Op: t.op, Parent: parent, Start: int64(time.Since(t.t0))})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	t.spans[id].CPU = -int64(threadCPU())
	return id
}

func (t *tracer) end(id int) {
	cpu := int64(threadCPU())
	s := &t.spans[id]
	s.CPU += cpu
	s.End = int64(time.Since(t.t0))
	t.open = t.open[:len(t.open)-1]
}

// do runs fn inside a span named name.
func (t *tracer) do(name string, fn func()) {
	id := t.begin(name)
	fn()
	t.end(id)
}

// selfTimes returns each span's wall and CPU time minus what its direct
// children cover. Children of one span run one after another on the same
// thread, inside their parent, so their durations add up without overlap.
func selfTimes(spans []span) (wall, cpu []int64) {
	wall = make([]int64, len(spans))
	cpu = make([]int64, len(spans))
	for i, s := range spans {
		wall[i] = s.End - s.Start
		cpu[i] = s.CPU
	}
	for _, s := range spans {
		if s.Parent >= 0 {
			wall[s.Parent] -= s.End - s.Start
			cpu[s.Parent] -= s.CPU
		}
	}
	return wall, cpu
}

// layerStats aggregates a trace per span name.
type layerStats struct {
	selfNs map[string]int64
	cpuNs  map[string]int64
	steps  map[string]int
	// unattributed is the share of operation wall time no layer span
	// covers: root self time over root duration.
	unattributed float64
}

func aggregate(spans []span) layerStats {
	wall, cpu := selfTimes(spans)
	st := layerStats{selfNs: map[string]int64{}, cpuNs: map[string]int64{}, steps: map[string]int{}}
	var rootSelf, rootTotal int64
	for i, s := range spans {
		if s.Parent < 0 {
			rootSelf += wall[i]
			rootTotal += s.End - s.Start
			continue
		}
		st.selfNs[s.Name] += wall[i]
		st.cpuNs[s.Name] += cpu[i]
		st.steps[s.Name] += s.Steps
	}
	if rootTotal > 0 {
		st.unattributed = float64(rootSelf) / float64(rootTotal)
	}
	return st
}
