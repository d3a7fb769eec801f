package streamx

import (
	"bytes"
	"errors"

	"repro/internal/dom"
)

// maxDepth caps the simulated open-element stack. Real pages sit far below
// it; pathological nesting bails out to the DOM path instead of growing
// per-frame counter storage without bound.
const maxDepth = 192

// ErrDepth reports a document nested deeper than the automaton's frame
// budget; the caller must re-extract through the parse+DOM path.
var ErrDepth = errors.New("streamx: document exceeds max element depth")

// state is one live NFA thread: location locs[loc] waiting to match
// steps[step] among the children of the frame that holds the state.
type state struct {
	loc  int32
	step int32
}

// capRec is one captured match of a location, in document order of the
// matched node. off/length index into Scratch.arena; off == -1 marks an
// element capture still accumulating text.
type capRec struct {
	loc    int32
	off    int32
	length int32
}

// elemCap tracks an element capture whose subtree is still open: cap
// indexes the pending capRec, buf accumulates the subtree's text content.
type elemCap struct {
	cap int32
	buf []byte
}

// execFrame mirrors one open frame of the walk: the state slice
// [stateLo,stateHi) of threads matching this frame's children, a per-tag
// child-counter block at countsOff, the count of text children so far, and
// the elemCaps stack mark for captures that finalize when this frame closes.
type execFrame struct {
	stateLo     int32
	stateHi     int32
	countsOff   int32
	textCount   int32
	elemCapMark int32
	detached    bool
}

// Scratch is the reusable per-goroutine execution state for one Program.
// After a warm-up run every Run call is allocation-free: frames, states,
// counters, capture records, text buffers and the value arena are all
// retained and re-sliced. Create with Program.NewScratch; a Scratch is
// bound to its Program and not safe for concurrent use.
type Scratch struct {
	p   *Program
	con dom.Constructor

	frames    []execFrame
	states    []state
	counts    []int32 // maxDepth blocks of len(p.tags) per-tag child counters
	caps      []capRec
	arena     []byte
	elemCaps  []elemCap
	freeBufs  [][]byte
	locCount  []int32
	doneRules int
	prevMask  uint64 // needle-containment bits of the nearest preceding text node
}

// NewScratch allocates execution state sized for the program.
func (p *Program) NewScratch() *Scratch {
	return &Scratch{
		p:        p,
		frames:   make([]execFrame, 0, maxDepth),
		counts:   make([]int32, maxDepth*max(len(p.tags), 1)),
		locCount: make([]int32, len(p.locs)),
	}
}

// Run executes the program over src. On success the results are readable
// through RuleMatches/RuleValues until the next Run. A non-nil error
// (ErrDepth) means the page needs the DOM path; partial results are
// meaningless then.
func (p *Program) Run(sc *Scratch, src string) error {
	sc.begin()
	err := dom.Construct(&sc.con, src, sc)
	if err != nil {
		return err
	}
	sc.finish()
	return nil
}

func (sc *Scratch) begin() {
	sc.states = sc.states[:0]
	sc.caps = sc.caps[:0]
	sc.arena = sc.arena[:0]
	sc.elemCaps = sc.elemCaps[:0]
	for i := range sc.locCount {
		sc.locCount[i] = 0
	}
	sc.doneRules = 0
	sc.prevMask = 0
	for i, loc := range sc.p.locs {
		switch {
		case loc.dead:
		case loc.captureBody:
			sc.pushElemCap(int32(i))
		default:
			sc.states = append(sc.states, state{loc: int32(i)})
		}
	}
	nTags := len(sc.p.tags)
	for i := 0; i < nTags; i++ {
		sc.counts[i] = 0
	}
	sc.frames = append(sc.frames[:0], execFrame{
		stateHi:     int32(len(sc.states)),
		elemCapMark: int32(len(sc.elemCaps)),
	})
}

// finish finalizes captures of elements still open at EOF (their subtrees
// extend to the end of the document, so their text is complete now).
func (sc *Scratch) finish() {
	for i := len(sc.elemCaps) - 1; i >= 0; i-- {
		sc.finalizeElemCap(&sc.elemCaps[i])
	}
	sc.elemCaps = sc.elemCaps[:0]
}

func (sc *Scratch) top() *execFrame { return &sc.frames[len(sc.frames)-1] }

// Done implements dom.Sink: a pure-exact program stops the walk once every
// rule's primary location has its (necessarily unique) match.
func (sc *Scratch) Done() bool {
	return sc.p.pureExact && sc.doneRules == len(sc.p.rules)
}

func (sc *Scratch) pushElemCap(loc int32) {
	var buf []byte
	if n := len(sc.freeBufs); n > 0 {
		buf = sc.freeBufs[n-1][:0]
		sc.freeBufs = sc.freeBufs[:n-1]
	}
	sc.caps = append(sc.caps, capRec{loc: loc, off: -1})
	sc.elemCaps = append(sc.elemCaps, elemCap{cap: int32(len(sc.caps) - 1), buf: buf})
}

func (sc *Scratch) finalizeElemCap(ec *elemCap) {
	rec := &sc.caps[ec.cap]
	rec.off = int32(len(sc.arena))
	rec.length = int32(len(ec.buf))
	sc.arena = append(sc.arena, ec.buf...)
	sc.freeBufs = append(sc.freeBufs, ec.buf)
	ec.buf = nil
	sc.countMatch(rec.loc)
}

func (sc *Scratch) countMatch(loc int32) {
	sc.locCount[loc]++
	l := &sc.p.locs[loc]
	if sc.p.pureExact && l.primary && sc.locCount[loc] == 1 {
		sc.doneRules++
	}
}

// appendStateDedup adds st to the open state range [lo, len(states)) of the
// frame being built, skipping duplicates (a node reachable through two //
// hops would otherwise spawn identical threads that inflate match counts).
func (sc *Scratch) appendStateDedup(lo int32, st state) {
	for i := lo; i < int32(len(sc.states)); i++ {
		if sc.states[i] == st {
			return
		}
	}
	sc.states = append(sc.states, st)
}

// StartElement implements dom.Sink. The element is a new child of the
// current top frame: bump its same-tag counter, advance matching threads
// into the element's own frame, open element captures for final-step
// matches, then push the frame when the walk did.
func (sc *Scratch) StartElement(name []byte, tag *dom.Tag, _ string, pushed, detached bool) error {
	if len(sc.frames) >= maxDepth {
		return ErrDepth
	}
	if detached || sc.top().detached {
		// Head-routed elements live outside BODY: invisible to location
		// paths, but a pushed frame must mirror the walk's frames.
		if pushed {
			sc.frames = append(sc.frames, execFrame{
				stateLo:     int32(len(sc.states)),
				stateHi:     int32(len(sc.states)),
				elemCapMark: int32(len(sc.elemCaps)),
				detached:    true,
			})
		}
		return nil
	}
	p := sc.p
	tagID := int32(-1)
	if tag != nil {
		// The walk already interned the tag: one array load instead of
		// re-hashing the name.
		tagID = int32(p.tagByID[tag.ID])
	} else if id, ok := p.tagIndex[string(name)]; ok {
		tagID = int32(id)
	}
	parent := sc.top()
	var cnt int32
	if tagID >= 0 {
		cnt = sc.counts[parent.countsOff+tagID] + 1
		sc.counts[parent.countsOff+tagID] = cnt
	}
	newLo := int32(len(sc.states))
	capMark := int32(len(sc.elemCaps))
	for i := parent.stateLo; i < parent.stateHi; i++ {
		st := sc.states[i]
		loc := &p.locs[st.loc]
		step := &loc.steps[st.step]
		if step.desc && pushed {
			// A // step keeps matching in every descendant frame.
			sc.appendStateDedup(newLo, st)
		}
		if step.text || step.tag != tagID {
			continue
		}
		if step.pos > 0 {
			if cnt != step.pos {
				continue
			}
		} else if cnt < max(step.minPos, 1) {
			continue
		}
		if step.needle >= 0 && sc.prevMask&(1<<uint(step.needle)) == 0 {
			continue
		}
		if int(st.step) == len(loc.steps)-1 {
			// Final step: capture this element's string value.
			if pushed {
				sc.pushElemCap(st.loc)
			} else {
				// Void or self-closing: no subtree, empty string value.
				sc.caps = append(sc.caps, capRec{loc: st.loc, off: int32(len(sc.arena))})
				sc.countMatch(st.loc)
			}
		} else if pushed {
			sc.appendStateDedup(newLo, state{loc: st.loc, step: st.step + 1})
		}
	}
	if pushed {
		countsOff := int32(len(sc.frames) * len(p.tags))
		for i := int32(0); i < int32(len(p.tags)); i++ {
			sc.counts[countsOff+i] = 0
		}
		sc.frames = append(sc.frames, execFrame{
			stateLo:     newLo,
			stateHi:     int32(len(sc.states)),
			countsOff:   countsOff,
			elemCapMark: capMark,
		})
	} else {
		sc.states = sc.states[:newLo]
	}
	return nil
}

// EndElement implements dom.Sink: finalize captures opened for this
// element, drop its threads, pop the frame.
func (sc *Scratch) EndElement() {
	f := sc.top()
	for i := int32(len(sc.elemCaps)) - 1; i >= f.elemCapMark; i-- {
		sc.finalizeElemCap(&sc.elemCaps[i])
	}
	sc.elemCaps = sc.elemCaps[:f.elemCapMark]
	sc.states = sc.states[:f.stateLo]
	sc.frames = sc.frames[:len(sc.frames)-1]
}

// Text implements dom.Sink: the sealed node is a new text child of the top
// frame. Match final text() steps, extend every open element capture, and
// refresh the nearest-preceding-text needle mask.
func (sc *Scratch) Text(data []byte, _ string) {
	f := sc.top()
	if !f.detached {
		f.textCount++
		cnt := f.textCount
		p := sc.p
		for i := f.stateLo; i < f.stateHi; i++ {
			st := sc.states[i]
			loc := &p.locs[st.loc]
			step := &loc.steps[st.step]
			if !step.text {
				continue
			}
			if step.pos > 0 {
				if cnt != step.pos {
					continue
				}
			} else if cnt < max(step.minPos, 1) {
				continue
			}
			if step.needle >= 0 && sc.prevMask&(1<<uint(step.needle)) == 0 {
				continue
			}
			// text() steps are always final (compiler invariant).
			off := int32(len(sc.arena))
			sc.arena = append(sc.arena, data...)
			sc.caps = append(sc.caps, capRec{loc: st.loc, off: off, length: int32(len(data))})
			sc.countMatch(st.loc)
		}
		for i := range sc.elemCaps {
			sc.elemCaps[i].buf = append(sc.elemCaps[i].buf, data...)
		}
	}
	var mask uint64
	for i, needle := range sc.p.needles {
		if bytes.Contains(data, needle) {
			mask |= 1 << uint(i)
		}
	}
	sc.prevMask = mask
}

// Comment, Doctype and MergeAttrs implement dom.Sink: comments, the
// doctype and skeleton attributes are invisible to location paths.
func (sc *Scratch) Comment(string)              {}
func (sc *Scratch) Doctype(string)              {}
func (sc *Scratch) MergeAttrs(*dom.Tag, string) {}

// RuleMatches reports how many nodes the rule's winning location matched
// (0 when no location matched). The winning location is the first in
// priority order with at least one match — the same tie-break
// rule.Compiled.ApplyAll applies on a parsed tree.
func (sc *Scratch) RuleMatches(ruleIdx int) int {
	for _, li := range sc.p.rules[ruleIdx].locs {
		if n := sc.locCount[li]; n > 0 {
			return int(n)
		}
	}
	return 0
}

// RuleValues streams the raw captured values of the rule's winning
// location, in document order, up to max values (max < 0 means all). The
// byte slices alias the scratch arena and are only valid until the next
// Run.
func (sc *Scratch) RuleValues(ruleIdx int, maxVals int, fn func(raw []byte)) {
	var winner int32 = -1
	for _, li := range sc.p.rules[ruleIdx].locs {
		if sc.locCount[li] > 0 {
			winner = li
			break
		}
	}
	if winner < 0 {
		return
	}
	n := 0
	for _, rec := range sc.caps {
		if rec.loc != winner {
			continue
		}
		fn(sc.arena[rec.off : rec.off+rec.length])
		n++
		if maxVals >= 0 && n >= maxVals {
			return
		}
	}
}
