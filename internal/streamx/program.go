package streamx

import (
	"repro/internal/dom"
	"repro/internal/rule"
)

// Fallback reasons reported by Compile. The extract layer surfaces these
// through its stream metrics so operators can see *why* a repository is
// not stream-eligible.
const (
	ReasonGeneralXPath   = "general-xpath"
	ReasonTooManyNeedles = "too-many-needles"
	ReasonTooManyTags    = "too-many-tags"
)

// progStep is one compiled automaton hop (a flattened xpath.StreamStep).
type progStep struct {
	tag    int32 // index into Program.tags; -1 for a text() step
	pos    int32 // exact 1-based same-kind child index; 0 = unconstrained
	minPos int32 // residual position()>=N; 0 = none
	needle int32 // index into Program.needles; -1 = none
	text   bool
	desc   bool // reached via //: evaluated in every subtree frame
}

// progLoc is one compiled location path of one rule.
type progLoc struct {
	rule        int32
	dead        bool // provably matches nothing; kept so loc indices stay stable
	primary     bool // the rule's first location (priority winner on ties)
	captureBody bool // empty Steps: the location selects the BODY element itself
	steps       []progStep
}

// progRule groups a rule's locations in priority order.
type progRule struct {
	locs []int32 // indices into Program.locs
}

// Program is a whole rule repository compiled into one stream automaton:
// every location of every component shares one pass over the token stream.
// A Program is immutable after Compile and safe for concurrent Run calls,
// each with its own Scratch.
type Program struct {
	tags     []string
	tagIndex map[string]int
	// tagByID maps a dom.Tag id to this program's tag index (-1 when the
	// program has no step on that tag): known tags resolve with one array
	// load on the hot path, tagIndex only catches unknown ones.
	tagByID [dom.NumTags]int16
	needles [][]byte
	rules   []progRule
	locs    []progLoc

	// pureExact marks a repository whose every live location uses only
	// exact child indexes (no //, no ranges, no needles). Such automata
	// can stop the token walk as soon as every rule has its value: no
	// later node can add matches, so failure counts are already final.
	pureExact bool
}

// Compile lowers a repository's compiled rules (in extraction order) into a
// single Program. The empty reason string means success; otherwise the
// Program is nil and the reason names the first disqualifier — the caller
// must route extraction through the parse+DOM path.
func Compile(ordered []*rule.Compiled) (*Program, string) {
	p := &Program{tagIndex: make(map[string]int)}
	addTag := func(name string) int32 {
		if i, ok := p.tagIndex[name]; ok {
			return int32(i)
		}
		i := len(p.tags)
		p.tags = append(p.tags, name)
		p.tagIndex[name] = i
		return int32(i)
	}
	p.pureExact = true
	for ri, cr := range ordered {
		var pr progRule
		for pi, path := range cr.Paths() {
			plan := path.StreamPlan()
			if plan == nil {
				return nil, ReasonGeneralXPath
			}
			loc := progLoc{rule: int32(ri), primary: pi == 0}
			switch {
			case plan.Dead:
				loc.dead = true
			case len(plan.Steps) == 0:
				loc.captureBody = true
			default:
				for _, ss := range plan.Steps {
					st := progStep{
						tag: -1, needle: -1,
						pos: int32(ss.Pos), minPos: int32(ss.MinPos),
						text: ss.Text, desc: ss.Desc,
					}
					if !ss.Text {
						st.tag = addTag(ss.Tag)
					}
					if ss.Needle != "" {
						st.needle = int32(len(p.needles))
						p.needles = append(p.needles, []byte(ss.Needle))
					}
					if ss.Desc || ss.MinPos > 0 || ss.Needle != "" || ss.Pos == 0 {
						p.pureExact = false
					}
					loc.steps = append(loc.steps, st)
				}
			}
			pr.locs = append(pr.locs, int32(len(p.locs)))
			p.locs = append(p.locs, loc)
		}
		p.rules = append(p.rules, pr)
	}
	if len(p.needles) > 64 {
		return nil, ReasonTooManyNeedles
	}
	if len(p.tags) > 64 {
		return nil, ReasonTooManyTags
	}
	for i := range p.tagByID {
		p.tagByID[i] = -1
	}
	for name, i := range p.tagIndex {
		if tag := dom.LookupTag(name); tag != nil {
			p.tagByID[tag.ID] = int16(i)
		}
	}
	return p, ""
}

// NumRules reports how many rules the program compiled (in input order).
func (p *Program) NumRules() int { return len(p.rules) }
