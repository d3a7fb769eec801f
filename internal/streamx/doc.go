// Package streamx executes compiled mapping rules directly over the HTML
// token stream — no DOM — on the ingest hot path.
//
// # Why
//
// Extraction with validated rules (the paper's §4 extractor) normally
// parses the page and evaluates each location path against the tree. For
// fleet ingest that parse dominates: the tree is built, walked once per
// location, and thrown away. The location paths that survive rule
// induction are, however, overwhelmingly simple — child steps with exact
// indexes, // hops, position() ranges and nearest-preceding-text guards —
// and every one of those constructs is decidable at node-creation time.
// So the whole rule repository can run as a single automaton over the
// tokenizer, touching each byte of the page once.
//
// # How
//
// Compile lowers every location of every rule (rule.Compiled →
// xpath.StreamPlan) into one Program. Program.Run drives dom.Construct,
// the one tree-construction walk, with the Scratch as its sink. The walk
// is the one dom.Parse builds its tree from: a tokenizer that allocates
// nothing (every token is a span of the source) feeding the synthesized
// HTML/HEAD/BODY skeleton, head routing, implied end tags,
// whitespace-only text dropping and text coalescing, as a stream of
// start/end/text events. dom.Parse's sink turns those events into nodes;
// the Scratch instead holds NFA threads per open element frame with
// per-frame same-tag child counters. Matched text nodes are captured as
// the walk seals them, matched elements accumulate their subtree text,
// and attributes, comments and the doctype are never materialized. After
// a warm-up run, executing a program allocates nothing.
//
// The same walk feeds featSink, so cluster fingerprints
// (streamx.Fingerprint) come from the identical token pass without a
// parse either. The induction buffer buckets unrouted pages by the
// features the router's pass already computed, so capture never parses;
// FuzzFingerprintVsDOM pins them to the parse-based ones.
//
// # Fallback contract
//
// Compile refuses any repository containing a location it cannot prove
// stream-equivalent (general predicates, non-child axes mid-path,
// attribute tests, …) and reports a reason; Run bails out on documents
// nested beyond its frame budget (ErrDepth). In both cases the caller
// (internal/extract) transparently re-runs extraction through parse+DOM.
// The differential guarantee — enforced by fuzzing — is byte-identical
// results between the two paths: same values, same failure records, same
// aggregate XML.
package streamx
