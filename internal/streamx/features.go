package streamx

import (
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dom"
	"repro/internal/textutil"
)

// featSink accumulates clustering features during one walk: the set
// of root-to-element tag paths (structure fingerprint) and the
// concatenated text content (keyword fingerprint) — the same inputs
// cluster.Fingerprint derives from a parsed tree.
type featSink struct {
	tags map[string]struct{}
	kw   []byte // concatenated text-node data, doc order (= dom.TextContent)
	path []byte // current root-to-top tag path, e.g. "HTML/BODY/DIV"
	lens []int  // path length to restore per open frame
}

func (f *featSink) Done() bool                  { return false }
func (f *featSink) Comment(string)              {}
func (f *featSink) Doctype(string)              {}
func (f *featSink) MergeAttrs(*dom.Tag, string) {}

func (f *featSink) Text(data []byte, _ string) {
	// Head and raw-text content count too: TextContent walks the whole
	// tree, TITLE/SCRIPT text included.
	f.kw = append(f.kw, data...)
}

func (f *featSink) addPath(p []byte) {
	if _, ok := f.tags[string(p)]; !ok {
		f.tags[string(p)] = struct{}{}
	}
}

func (f *featSink) StartElement(name []byte, _ *dom.Tag, _ string, pushed, detached bool) error {
	if detached {
		p := make([]byte, 0, len("HTML/HEAD/")+len(name))
		p = append(append(p, "HTML/HEAD/"...), name...)
		f.addPath(p)
		if pushed {
			// A pushed head frame is the path of anything nested in it
			// (what follows a self-closed TITLE or STYLE). Head routing
			// only happens at the BODY root, so popping it restores
			// HTML/BODY (mark -1).
			f.lens = append(f.lens, -1)
			f.path = append(f.path[:0], p...)
		}
		return nil
	}
	mark := len(f.path)
	f.path = append(append(f.path, '/'), name...)
	f.addPath(f.path)
	if pushed {
		f.lens = append(f.lens, mark)
	} else {
		f.path = f.path[:mark]
	}
	return nil
}

func (f *featSink) EndElement() {
	n := len(f.lens) - 1
	if mark := f.lens[n]; mark >= 0 {
		f.path = f.path[:mark]
	} else {
		f.path = append(f.path[:0], "HTML/BODY"...)
	}
	f.lens = f.lens[:n]
}

// Fingerprint computes the clustering features of a page straight from its
// raw HTML — one token pass, no tree. The result is identical to
// cluster.Fingerprint over the parsed document: same tag-path shingles
// (the synthesized HTML/HEAD/BODY skeleton included), same keyword set.
func Fingerprint(uri, src string) cluster.Features {
	fs := &featSink{tags: make(map[string]struct{})}
	fs.tags["HTML"] = struct{}{}
	fs.tags["HTML/HEAD"] = struct{}{}
	fs.tags["HTML/BODY"] = struct{}{}
	fs.path = append(fs.path, "HTML/BODY"...)
	var c dom.Constructor
	// featSink never errors or stops early; the walk cannot fail.
	_ = dom.Construct(&c, src, fs)
	return cluster.FeaturesFromParts(uri, fs.tags, textutil.TokenSet(string(fs.kw)))
}

// FingerprintPage fingerprints a page by whichever representation it
// already holds: unparsed lazy pages stream their raw source (keeping the
// ingest path DOM-free), anything with a tree uses cluster.Fingerprint.
// Both produce identical features.
func FingerprintPage(p *core.Page) cluster.Features {
	if src, lazy := p.Source(); lazy && p.Doc == nil {
		return Fingerprint(p.URI, src)
	}
	return cluster.Fingerprint(cluster.PageInfo{URI: p.URI, Doc: p.Document()})
}
