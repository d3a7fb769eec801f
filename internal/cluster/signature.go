package cluster

import (
	"cmp"
	"encoding/json"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"

	"repro/internal/textutil"
)

// Signature is an incremental summary of a page cluster: for every
// structural shingle, keyword and normalized URL pattern it counts in how
// many of the cluster's pages the feature occurred. Unlike a leader page,
// a signature absorbs every page it has seen, so alternative layouts
// inside one cluster (§3.4) all contribute to the profile — and unlike
// the offline clustering pass, it can keep growing one page at a time
// while a service is running.
//
// A Signature deliberately ignores the page host: the paper's clustering
// gate ("pages of the same Web site", §2.1) holds within one crawl, but a
// router matches live pages against repositories whose rules were built
// from a corpus that may be served under a different host (a mirror, a
// test server, a migrated site). Structure and path shape survive such
// moves; the hostname does not.
type Signature struct {
	// Pages is the number of pages absorbed.
	Pages int `json:"pages"`
	// Tags counts pages containing each root-to-element tag-path shingle.
	Tags map[string]int `json:"tags,omitempty"`
	// Keywords counts pages containing each visible-text token.
	Keywords map[string]int `json:"keywords,omitempty"`
	// URLPatterns counts pages per normalized path pattern (segments
	// joined by '/', digit runs collapsed to '#').
	URLPatterns map[string]int `json:"urlPatterns,omitempty"`

	// Cached Σcount over Tags/Keywords, so weightedJaccard is a single
	// pass over the (small) page set instead of also walking the (up to
	// maxSignatureFeatures) signature map per match. Maintained by
	// Add/Clone/UnmarshalJSON; totalsValid is false for hand-constructed
	// literals, which fall back to summing on the fly without mutating
	// (Match may run under a shared read lock).
	tagsTotal     int
	keywordsTotal int
	totalsValid   bool

	// sorted lists the keys of Tags, Keywords and URLPatterns in
	// increasing order as a decode read them, sparing AppendJSON the
	// sort; nil where unknown. AppendJSON uses a list only while it
	// names exactly its map's keys, and Add drops all three.
	sorted [3][]string
}

func sumCounts(m map[string]int) int {
	total := 0
	for _, c := range m {
		total += c
	}
	return total
}

// ensureTotals (re)establishes the cached sums. Only call from mutating
// methods, which callers already serialize.
func (s *Signature) ensureTotals() {
	if !s.totalsValid {
		s.tagsTotal = sumCounts(s.Tags)
		s.keywordsTotal = sumCounts(s.Keywords)
		s.totalsValid = true
	}
}

// NewSignature returns an empty signature.
func NewSignature() *Signature {
	return &Signature{
		Tags:        map[string]int{},
		Keywords:    map[string]int{},
		URLPatterns: map[string]int{},
	}
}

// SignatureOf builds a signature from a set of pages.
func SignatureOf(pages []PageInfo) *Signature {
	s := NewSignature()
	for _, p := range pages {
		s.Add(Fingerprint(p))
	}
	return s
}

// maxSignatureFeatures bounds each feature map so a boundless crawl
// cannot grow a signature without limit: when the cap is hit, the rarest
// features are dropped (they contribute least to the match score).
const maxSignatureFeatures = 4096

// cleanFeature replaces invalid UTF-8 in a feature key with U+FFFD —
// the same replacement json.Marshal performs silently, so an
// unsanitized key would not survive the signature's JSON round trip:
// the reloaded signature could no longer match the pages it was built
// from, and two keys merged under one replacement form could push a
// count past Pages, failing Validate. Fingerprint already normalizes
// its output; sanitizing here extends the guarantee to callers that
// build Features by hand (FuzzSignatureJSON holds the round-trip
// property over both paths).
func cleanFeature(s string) string {
	if utf8.ValidString(s) {
		return s
	}
	return strings.ToValidUTF8(s, string(utf8.RuneError))
}

// cleanSet sanitizes a feature set, deduplicating keys that collapse to
// the same replacement form. The common all-valid case returns the input
// map untouched.
func cleanSet(m map[string]struct{}) map[string]struct{} {
	dirty := false
	for k := range m {
		if !utf8.ValidString(k) {
			dirty = true
			break
		}
	}
	if !dirty {
		return m
	}
	out := make(map[string]struct{}, len(m))
	for k := range m {
		out[cleanFeature(k)] = struct{}{}
	}
	return out
}

// cleanSegs sanitizes URL pattern segments in place-compatible fashion.
func cleanSegs(segs []string) []string {
	dirty := false
	for _, s := range segs {
		if !utf8.ValidString(s) {
			dirty = true
			break
		}
	}
	if !dirty {
		return segs
	}
	out := make([]string, len(segs))
	for i, s := range segs {
		out[i] = cleanFeature(s)
	}
	return out
}

// Add absorbs one page fingerprint.
func (s *Signature) Add(f Features) {
	if s.Tags == nil {
		s.Tags = map[string]int{}
	}
	if s.Keywords == nil {
		s.Keywords = map[string]int{}
	}
	if s.URLPatterns == nil {
		s.URLPatterns = map[string]int{}
	}
	s.ensureTotals()
	s.sorted = [3][]string{}
	s.Pages++
	for t := range cleanSet(f.TagShingles) {
		s.Tags[t]++
		s.tagsTotal++
	}
	for k := range cleanSet(f.Keywords) {
		s.Keywords[k]++
		s.keywordsTotal++
	}
	s.URLPatterns[joinPattern(cleanSegs(f.URLPattern))]++
	s.tagsTotal -= trimRarest(s.Tags, maxSignatureFeatures)
	s.keywordsTotal -= trimRarest(s.Keywords, maxSignatureFeatures)
	trimRarest(s.URLPatterns, maxSignatureFeatures)
}

// trimRarest drops lowest-count entries (lowest key first among equal
// counts) until the map fits the cap, choosing them all with one sort,
// and reports the total count removed so callers can adjust cached sums.
func trimRarest(m map[string]int, cap int) (removed int) {
	excess := len(m) - cap
	if excess <= 0 {
		return 0
	}
	all := make([]keyCount, 0, len(m))
	for k, n := range m {
		all = append(all, keyCount{k, n})
	}
	slices.SortFunc(all, func(a, b keyCount) int {
		return cmp.Or(cmp.Compare(a.n, b.n), strings.Compare(a.key, b.key))
	})
	for _, e := range all[:excess] {
		delete(m, e.key)
		removed += e.n
	}
	return removed
}

// keyCount is one feature-map entry.
type keyCount struct {
	key string
	n   int
}

// joinPattern renders a normalized segment list as one pattern key.
func joinPattern(segs []string) string {
	out := ""
	for _, s := range segs {
		out += "/" + s
	}
	if out == "" {
		return "/"
	}
	return out
}

func splitPattern(p string) []string {
	var segs []string
	start := -1
	for i := 0; i < len(p); i++ {
		if p[i] == '/' {
			if start >= 0 && i > start {
				segs = append(segs, p[start:i])
			}
			start = i + 1
		}
	}
	if start >= 0 && start < len(p) {
		segs = append(segs, p[start:])
	}
	return segs
}

// sanitizeFeatures returns f with every feature key valid UTF-8 — the
// page-side counterpart of Add's sanitization, so a page with broken
// encoding still matches the signature its clean twin built. A no-op
// (same maps, no allocation) for Fingerprint output, which is already
// normalized.
func sanitizeFeatures(f Features) Features {
	f.TagShingles = cleanSet(f.TagShingles)
	f.Keywords = cleanSet(f.Keywords)
	f.URLPattern = cleanSegs(f.URLPattern)
	return f
}

// Match scores a page fingerprint against the signature in [0,1] using
// the same weight mix as page-to-page Similarity: weighted Jaccard for
// structure and keywords (signature features weigh their in-cluster
// frequency, page features weigh 1, so a feature every cluster page
// shares counts fully and a one-off noise feature barely counts), and the
// best match over the recorded URL patterns.
func (s *Signature) Match(f Features, w Weights) float64 {
	return s.matchClean(sanitizeFeatures(f), w)
}

// matchClean is Match for a fingerprint already passed through
// sanitizeFeatures — the router sanitizes once per page, not once per
// registered signature.
func (s *Signature) matchClean(f Features, w Weights) float64 {
	if s == nil || s.Pages == 0 {
		return 0
	}
	total := w.Structure + w.URL + w.Keywords
	if total == 0 {
		return 0
	}
	tagsTotal, kwTotal := s.tagsTotal, s.keywordsTotal
	if !s.totalsValid {
		tagsTotal, kwTotal = sumCounts(s.Tags), sumCounts(s.Keywords)
	}
	score := w.Structure * weightedJaccard(f.TagShingles, s.Tags, tagsTotal, s.Pages)
	score += w.URL * s.patternSimilarity(f.URLPattern)
	score += w.Keywords * weightedJaccard(f.Keywords, s.Keywords, kwTotal, s.Pages)
	return score / total
}

// weightedJaccard compares a page's feature set (each feature weight 1)
// against a signature's frequency profile (each feature weight count/n):
// Σ min / Σ max over the union. sigTotal is Σ counts over sig, so only the
// page's features are walked: the signature-only mass is sigTotal minus
// the overlap.
func weightedJaccard(page map[string]struct{}, sig map[string]int, sigTotal, n int) float64 {
	if len(page) == 0 && len(sig) == 0 {
		return 1
	}
	overlap := 0
	for feat := range page {
		overlap += sig[feat]
	}
	num := float64(overlap) / float64(n)
	den := float64(len(page)) + float64(sigTotal-overlap)/float64(n)
	if den == 0 {
		return 0
	}
	return num / den
}

// patternSimilarity returns the best urlSimilarity of the page's pattern
// against every recorded pattern, weighted down for patterns seen in only
// a sliver of the cluster (frequency < 10% scales the score).
func (s *Signature) patternSimilarity(segs []string) float64 {
	best := 0.0
	for pat, c := range s.URLPatterns {
		sim := urlSimilarity(segs, splitPattern(pat))
		if freq := float64(c) / float64(s.Pages); freq < 0.1 {
			sim *= freq / 0.1
		}
		if sim > best {
			best = sim
		}
	}
	return best
}

// Clone deep-copies the signature.
func (s *Signature) Clone() *Signature {
	if s == nil {
		return nil
	}
	out := &Signature{
		Pages:       s.Pages,
		Tags:        make(map[string]int, len(s.Tags)),
		Keywords:    make(map[string]int, len(s.Keywords)),
		URLPatterns: make(map[string]int, len(s.URLPatterns)),

		tagsTotal:     s.tagsTotal,
		keywordsTotal: s.keywordsTotal,
		totalsValid:   s.totalsValid,
		sorted:        s.sorted,
	}
	for k, v := range s.Tags {
		out.Tags[k] = v
	}
	for k, v := range s.Keywords {
		out.Keywords[k] = v
	}
	for k, v := range s.URLPatterns {
		out.URLPatterns[k] = v
	}
	return out
}

// Validate checks a deserialized signature for internal consistency. Of
// several out-of-range features it names the least key of the first map
// holding one, so the error text does not depend on map order.
func (s *Signature) Validate() error {
	if s.Pages < 0 {
		return fmt.Errorf("cluster: signature has negative page count %d", s.Pages)
	}
	for _, m := range []map[string]int{s.Tags, s.Keywords, s.URLPatterns} {
		bad, found := "", false
		for k, c := range m {
			if (c < 0 || c > s.Pages) && (!found || k < bad) {
				bad, found = k, true
			}
		}
		if found {
			return fmt.Errorf("cluster: signature feature %q count %d outside [0,%d]", bad, m[bad], s.Pages)
		}
	}
	return nil
}

// The signature's JSON form lists each feature map as key-sorted
// {"k":…,"n":…} pairs, so signatures in committed rule repositories
// produce stable diffs:
//
//	{"pages":3,"tags":[{"k":"HTML","n":3}],"keywords":[…],"urlPatterns":[…]}
//
// Empty maps are left out. AppendJSON writes it and DecodeSignature
// reads it in one direct pass each; both give exactly what the
// reflective encoding/json route would.

// MarshalJSON returns AppendJSON's bytes.
func (s *Signature) MarshalJSON() ([]byte, error) {
	return s.AppendJSON(nil), nil
}

// AppendJSON appends the signature's JSON form, byte for byte what
// json.Marshal writes for it.
func (s *Signature) AppendJSON(dst []byte) []byte {
	dst = append(dst, `{"pages":`...)
	dst = strconv.AppendInt(dst, int64(s.Pages), 10)
	dst = appendPairs(dst, `,"tags":[`, s.Tags, s.sorted[0])
	dst = appendPairs(dst, `,"keywords":[`, s.Keywords, s.sorted[1])
	dst = appendPairs(dst, `,"urlPatterns":[`, s.URLPatterns, s.sorted[2])
	return append(dst, '}')
}

// appendPairs appends one feature map as its member, opened by head,
// unless the map is empty. sorted, when it still lists exactly the
// map's keys, gives their order; otherwise the keys are sorted here.
func appendPairs(dst []byte, head string, m map[string]int, sorted []string) []byte {
	if len(m) == 0 {
		return dst
	}
	if len(sorted) == len(m) {
		if out, ok := appendPairList(dst, head, m, sorted); ok {
			return out
		}
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	dst, _ = appendPairList(dst, head, m, keys)
	return dst
}

// appendPairList appends the pairs of m in the order of keys, reporting
// false, with dst as it was, if m lacks one of them.
func appendPairList(dst []byte, head string, m map[string]int, keys []string) ([]byte, bool) {
	start := len(dst)
	// Room for every pair with an unescaped key and a count of up to four
	// digits: one allocation for a signature's worth of pairs.
	need := len(head) + 1
	for _, k := range keys {
		need += len(k) + len(`{"k":"","n":0000},`)
	}
	dst = slices.Grow(dst, need)
	dst = append(dst, head...)
	for i, k := range keys {
		n, ok := m[k]
		if !ok {
			return dst[:start], false
		}
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"k":`...)
		dst = textutil.AppendJSONString(dst, k)
		dst = append(dst, `,"n":`...)
		dst = strconv.AppendInt(dst, int64(n), 10)
		dst = append(dst, '}')
	}
	return append(dst, ']'), true
}

// UnmarshalJSON reads the signature's JSON form. The canonical form —
// the members of AppendJSON in any order, each at most once, with any
// whitespace — decodes in one pass; anything else, and any signature
// that fails Validate, takes the reflective route, so the value or the
// error is always the one encoding/json gives.
func (s *Signature) UnmarshalJSON(data []byte) error {
	var r textutil.JSONReader
	r.Reset(data)
	if sig := DecodeSignature(&r); sig != nil {
		if r.End(); r.OK() {
			*s = *sig
			return nil
		}
	}
	return s.unmarshalReflect(data)
}

// unmarshalReflect is UnmarshalJSON's encoding/json route.
func (s *Signature) unmarshalReflect(data []byte) error {
	var raw struct {
		Pages       int  `json:"pages"`
		Tags        []kv `json:"tags"`
		Keywords    []kv `json:"keywords"`
		URLPatterns []kv `json:"urlPatterns"`
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	*s = Signature{
		Pages:       raw.Pages,
		Tags:        pairMap(raw.Tags),
		Keywords:    pairMap(raw.Keywords),
		URLPatterns: pairMap(raw.URLPatterns),
	}
	s.ensureTotals()
	return s.Validate()
}

// kv is one feature of the JSON form.
type kv struct {
	K string `json:"k"`
	N int    `json:"n"`
}

// pairMap folds pairs into a feature map; a repeated key keeps its last
// count.
func pairMap(pairs []kv) map[string]int {
	m := make(map[string]int, len(pairs))
	for _, p := range pairs {
		m[p.K] = p.N
	}
	return m
}

// DecodeSignature reads a signature in the canonical form (see
// UnmarshalJSON) at r's position and returns it validated, or nil —
// with r failed or the signature invalid — when the caller must take
// the encoding/json route instead. A decoder of an enclosing document
// calls it to read the signature in its own pass.
func DecodeSignature(r *textutil.JSONReader) *Signature {
	r.Byte('{')
	var sig Signature
	var pairs []kv
	var seen [4]bool
	more := r.Peek() != '}'
	if !more {
		r.Byte('}')
	}
	for more && r.OK() {
		feature := -1 // index into sig.sorted of the map read here
		switch {
		case !seen[0] && r.IsKey("pages"):
			seen[0] = true
			sig.Pages = r.Int()
		case !seen[1] && r.IsKey("tags"):
			seen[1], feature = true, 0
		case !seen[2] && r.IsKey("keywords"):
			seen[2], feature = true, 1
		case !seen[3] && r.IsKey("urlPatterns"):
			seen[3], feature = true, 2
		default:
			r.Fail()
		}
		if feature >= 0 {
			pairs = decodePairs(r, pairs[:0])
			*sig.feature(feature) = pairMap(pairs)
			sig.sorted[feature] = ascendingKeys(pairs)
		}
		more = r.Next('}')
	}
	if !r.OK() {
		return nil
	}
	for i := range sig.sorted {
		if m := sig.feature(i); *m == nil {
			*m = map[string]int{}
		}
	}
	sig.ensureTotals()
	if sig.Validate() != nil {
		return nil
	}
	return &sig
}

// feature returns the feature map AppendJSON writes i-th.
func (s *Signature) feature(i int) *map[string]int {
	return [...]*map[string]int{&s.Tags, &s.Keywords, &s.URLPatterns}[i]
}

// ascendingKeys returns the keys of pairs when they strictly increase —
// as AppendJSON writes them — and nil otherwise.
func ascendingKeys(pairs []kv) []string {
	keys := make([]string, len(pairs))
	for i, p := range pairs {
		if i > 0 && p.K <= keys[i-1] {
			return nil
		}
		keys[i] = p.K
	}
	return keys
}

// decodePairs appends the pairs of one feature array to pairs: the maps
// are then built at their final size.
func decodePairs(r *textutil.JSONReader, pairs []kv) []kv {
	r.Byte('[')
	more := r.Peek() != ']'
	if !more {
		r.Byte(']')
	}
	for more && r.OK() {
		r.Byte('{')
		r.Key("k")
		k := r.String()
		r.Byte(',')
		r.Key("n")
		n := r.Int()
		r.Byte('}')
		pairs = append(pairs, kv{k, n})
		more = r.Next(']')
	}
	return pairs
}
