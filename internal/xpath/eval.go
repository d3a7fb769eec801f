package xpath

import (
	"math"

	"repro/internal/dom"
)

// Eval evaluates the expression with n as the context node and returns the
// raw XPath value (NodeSet, string, float64 or bool).
//
// Evaluation draws every transient node-set buffer from a pooled scratch
// allocator, so steady-state evaluations allocate only the detached result
// set. Expressions with the canonical positional-path shape bypass the
// general evaluator entirely (see fastpath.go).
func (c *Compiled) Eval(n *dom.Node) Value {
	if c.fast != nil {
		if hit := c.fast.run(n); hit != nil {
			return NodeSet{hit}
		}
		return NodeSet(nil)
	}
	scr := getScratch()
	ctx := &context{node: n, pos: 1, size: 1, scr: scr}
	v := c.root.eval(ctx)
	if ns, ok := v.(NodeSet); ok {
		// Detach the result from the scratch before it returns to the pool.
		if len(ns) == 0 {
			v = NodeSet(nil)
		} else {
			out := make(NodeSet, len(ns))
			copy(out, ns)
			v = out
		}
		scr.put(ns)
	}
	putScratch(scr)
	return v
}

// Select evaluates the expression and returns the resulting node-set.
// Non-node-set results yield nil — mapping-rule locations always denote
// node-sets, so a non-node result is a void match.
func (c *Compiled) Select(n *dom.Node) NodeSet {
	v := c.Eval(n)
	if ns, ok := v.(NodeSet); ok {
		return ns
	}
	return nil
}

// locationContext resolves the context node for a mapping-rule location:
// the document element for documents, the node itself otherwise.
func locationContext(doc *dom.Node) *dom.Node {
	if doc != nil && doc.Type == dom.DocumentNode {
		for ch := doc.FirstChild; ch != nil; ch = ch.NextSibling {
			if ch.Type == dom.ElementNode {
				return ch
			}
		}
	}
	return doc
}

// SelectLocation evaluates a mapping-rule location against a document.
// The paper anchors rule locations at the BODY element
// (e.g. BODY[1]/DIV[2]/…/text()[1]), i.e. the location is a path relative
// to the *document element*. SelectLocation therefore uses the document's
// root element as the context node for relative paths; absolute paths
// (starting with /) behave as usual.
func (c *Compiled) SelectLocation(doc *dom.Node) NodeSet {
	return c.Select(locationContext(doc))
}

// SelectLocationFirst returns the first node a mapping-rule location
// selects, or nil. For canonical positional paths it runs the compiled
// child-path walker and performs no heap allocation at all — the
// extraction hot path for the paper's rule shapes.
func (c *Compiled) SelectLocationFirst(doc *dom.Node) *dom.Node {
	ctx := locationContext(doc)
	if c.fast != nil {
		return c.fast.run(ctx)
	}
	ns := c.Select(ctx)
	if len(ns) == 0 {
		return nil
	}
	return ns[0]
}

// IsFastPath reports whether the expression compiled to the zero-
// allocation child-path walker.
func (c *Compiled) IsFastPath() bool { return c.fast != nil }

// releaseValue returns a node-set value's buffer to the scratch once the
// consumer has reduced it to a scalar. Every NodeSet produced by eval is
// scratch-owned, so consumers that do not propagate the set release it.
func releaseValue(ctx *context, v Value) {
	if ns, ok := v.(NodeSet); ok {
		ctx.scr.put(ns)
	}
}

func (e *pathExpr) eval(ctx *context) Value {
	scr := ctx.scr
	var current NodeSet
	switch {
	case e.start != nil:
		v := e.start.eval(ctx)
		ns, ok := v.(NodeSet)
		if !ok {
			return NodeSet(nil)
		}
		current = ns
	case e.absolute:
		current = append(scr.get(), ctx.node.Root())
	default:
		current = append(scr.get(), ctx.node)
	}
	for _, s := range e.steps {
		next := evalStep(s, current, scr)
		scr.put(current)
		current = next
		if len(current) == 0 {
			scr.put(current)
			return NodeSet(nil)
		}
	}
	return current
}

// evalStep applies one location step to every node of the input set and
// merges the results in document order. The returned buffer is
// scratch-owned; the input buffer stays owned by the caller.
func evalStep(s *step, input NodeSet, scr *scratch) NodeSet {
	if len(input) == 1 {
		// Single context node: one axis traversal yields no duplicates and
		// is already ordered — no merge machinery at all.
		return stepFrom(s, input[0], scr)
	}
	out := scr.get()
	var d dedup
	if len(s.preds) == 0 {
		// No predicates: stepFrom cannot re-enter the evaluator, so marks
		// of this merge's generation cannot be overwritten mid-merge and
		// insertion can interleave with collection.
		d.begin(scr)
		for _, n := range input {
			matched := stepFrom(s, n, scr)
			for _, m := range matched {
				if d.unseen(m) {
					out = append(out, m)
				}
			}
			scr.put(matched)
		}
		return sortDocOrder(out)
	}
	// Predicated steps evaluate expressions per input node, which may run
	// nested merges that would clobber an in-progress generation's marks.
	// Collect every per-input result first, then merge in one pass.
	parts := scr.getParts()
	for _, n := range input {
		matched := stepFrom(s, n, scr)
		if len(matched) == 0 {
			scr.put(matched)
			continue
		}
		parts = append(parts, matched)
	}
	d.begin(scr)
	for _, matched := range parts {
		for _, m := range matched {
			if d.unseen(m) {
				out = append(out, m)
			}
		}
		scr.put(matched)
	}
	scr.putParts(parts)
	return sortDocOrder(out)
}

// stepFrom applies one step to a single context node: axis traversal with
// the node test (and the hoisted positional predicate) applied inline,
// then the residual predicates, then the reverse-axis flip back to
// document order. The returned buffer is scratch-owned by the caller.
func stepFrom(s *step, n *dom.Node, scr *scratch) NodeSet {
	matched := collectAxis(s, n, scr)
	for _, p := range s.preds {
		matched = applyPredicate(p, matched, scr)
		if len(matched) == 0 {
			break
		}
	}
	if s.axis.reverse() {
		// Predicates counted positions along the reverse axis; the
		// resulting node-set reverts to document order.
		for i, j := 0, len(matched)-1; i < j; i, j = i+1, j-1 {
			matched[i], matched[j] = matched[j], matched[i]
		}
	}
	return matched
}

// stepCollector accumulates axis candidates that pass the node test,
// honoring a hoisted positional predicate with early exit.
type stepCollector struct {
	test nodeTest
	axis axis
	out  NodeSet
	// posLeft counts down to the hoisted [N] target; 0 disables the
	// positional fast path.
	posLeft int
}

// add records n if it passes the node test and reports whether the axis
// traversal should continue (false once the positional target is taken).
func (c *stepCollector) add(n *dom.Node) bool {
	if !c.test.matches(c.axis, n) {
		return true
	}
	if c.posLeft > 0 {
		c.posLeft--
		if c.posLeft > 0 {
			return true
		}
		c.out = append(c.out, n)
		return false
	}
	c.out = append(c.out, n)
	return true
}

// collectAxis traverses the axis from n in axis order (reverse axes yield
// nearest-first so positional predicates count correctly), filtering by
// the node test as it goes. Traversal is iterative or shallowly recursive
// — no intermediate axis slice is ever materialized.
func collectAxis(s *step, n *dom.Node, scr *scratch) NodeSet {
	col := stepCollector{test: s.test, axis: s.axis, out: scr.get(), posLeft: s.pos}
	switch s.axis {
	case axisChild:
		for ch := n.FirstChild; ch != nil; ch = ch.NextSibling {
			if !col.add(ch) {
				break
			}
		}
	case axisSelf:
		col.add(n)
	case axisParent:
		if n.Parent != nil {
			col.add(n.Parent)
		}
	case axisDescendant:
		collectDescendants(&col, n)
	case axisDescendantOrSelf:
		if col.add(n) {
			collectDescendants(&col, n)
		}
	case axisAncestor:
		for p := n.Parent; p != nil; p = p.Parent {
			if !col.add(p) {
				break
			}
		}
	case axisAncestorOrSelf:
		if col.add(n) {
			for p := n.Parent; p != nil; p = p.Parent {
				if !col.add(p) {
					break
				}
			}
		}
	case axisFollowingSibling:
		for sib := n.NextSibling; sib != nil; sib = sib.NextSibling {
			if !col.add(sib) {
				break
			}
		}
	case axisPrecedingSibling:
		for sib := n.PrevSibling; sib != nil; sib = sib.PrevSibling {
			if !col.add(sib) {
				break
			}
		}
	case axisFollowing:
		// Everything after n in document order, excluding descendants:
		// skip past n's subtree, then walk forward in document order.
		cur := n
		for cur != nil && cur.NextSibling == nil {
			cur = cur.Parent
		}
		if cur != nil {
			for cur = cur.NextSibling; cur != nil; cur = dom.NextInDocument(cur) {
				if !col.add(cur) {
					break
				}
			}
		}
	case axisPreceding:
		// Everything before n in document order, excluding ancestors,
		// nearest first (reverse document order per XPath 1.0 §2.4). The
		// reverse walk visits ancestors exactly when it reaches the parent
		// of the deepest ancestor seen so far, so they are skipped in O(1)
		// — and a hoisted [1] (the contextual-predicate shape
		// preceding::text()[1]) stops at the nearest match instead of
		// materializing and re-sorting the whole prefix of the document.
		anc := n
		for cur := dom.PrevInDocument(n); cur != nil; cur = dom.PrevInDocument(cur) {
			if cur == anc.Parent {
				anc = cur
				continue
			}
			if !col.add(cur) {
				break
			}
		}
	case axisAttribute:
		for i := range n.Attr {
			at := n.Attr[i]
			an := &dom.Node{
				Type:   dom.AttributeNode,
				Data:   at.Key,
				Attr:   []dom.Attribute{at},
				Parent: n, // anchor to the owner for document-order comparisons
			}
			if !col.add(an) {
				break
			}
		}
	}
	return col.out
}

// collectDescendants visits n's descendants in document order, reporting
// false once the collector stops.
func collectDescendants(col *stepCollector, n *dom.Node) bool {
	for ch := n.FirstChild; ch != nil; ch = ch.NextSibling {
		if !col.add(ch) {
			return false
		}
		if !collectDescendants(col, ch) {
			return false
		}
	}
	return true
}

// applyPredicate filters nodes by a predicate expression, handling the
// numeric position abbreviation. Filtering is in place — the slice is a
// scratch buffer owned by the caller — and one context is reused across
// the whole list.
func applyPredicate(p expr, nodes NodeSet, scr *scratch) NodeSet {
	size := len(nodes)
	ctx := context{size: size, scr: scr}
	w := 0
	for i, n := range nodes {
		ctx.node, ctx.pos = n, i+1
		v := p.eval(&ctx)
		if num, ok := v.(float64); ok {
			// A numeric predicate [N] means [position() = N].
			if float64(ctx.pos) == num {
				nodes[w] = n
				w++
			}
			continue
		}
		keep := BoolValue(v)
		releaseValue(&ctx, v)
		if keep {
			nodes[w] = n
			w++
		}
	}
	return nodes[:w]
}

func (e *unionExpr) eval(ctx *context) Value {
	scr := ctx.scr
	// Evaluate every part before merging: nested evaluations must not run
	// while a dedup generation is collecting marks.
	parts := scr.getParts()
	for _, p := range e.parts {
		v := p.eval(ctx)
		if ns, ok := v.(NodeSet); ok {
			parts = append(parts, ns)
		}
	}
	out := scr.get()
	var d dedup
	d.begin(scr)
	for _, ns := range parts {
		for _, n := range ns {
			if d.unseen(n) {
				out = append(out, n)
			}
		}
		scr.put(ns)
	}
	scr.putParts(parts)
	return sortDocOrder(out)
}

func (e *binaryExpr) eval(ctx *context) Value {
	switch e.op {
	case "or":
		lv := e.lhs.eval(ctx)
		lb := BoolValue(lv)
		releaseValue(ctx, lv)
		if lb {
			return true
		}
		rv := e.rhs.eval(ctx)
		rb := BoolValue(rv)
		releaseValue(ctx, rv)
		return rb
	case "and":
		lv := e.lhs.eval(ctx)
		lb := BoolValue(lv)
		releaseValue(ctx, lv)
		if !lb {
			return false
		}
		rv := e.rhs.eval(ctx)
		rb := BoolValue(rv)
		releaseValue(ctx, rv)
		return rb
	case "=", "!=":
		lv, rv := e.lhs.eval(ctx), e.rhs.eval(ctx)
		res := evalEquality(e.op, lv, rv)
		releaseValue(ctx, lv)
		releaseValue(ctx, rv)
		return res
	case "<", "<=", ">", ">=":
		lv, rv := e.lhs.eval(ctx), e.rhs.eval(ctx)
		res := evalRelational(e.op, lv, rv)
		releaseValue(ctx, lv)
		releaseValue(ctx, rv)
		return res
	case "+":
		return e.num(ctx, e.lhs) + e.num(ctx, e.rhs)
	case "-":
		return e.num(ctx, e.lhs) - e.num(ctx, e.rhs)
	case "*":
		return e.num(ctx, e.lhs) * e.num(ctx, e.rhs)
	case "div":
		return e.num(ctx, e.lhs) / e.num(ctx, e.rhs)
	case "mod":
		return math.Mod(e.num(ctx, e.lhs), e.num(ctx, e.rhs))
	default:
		return false
	}
}

// num evaluates a side of an arithmetic operator to its number-value,
// releasing any transient node-set.
func (e *binaryExpr) num(ctx *context, side expr) float64 {
	v := side.eval(ctx)
	f := NumberValue(v)
	releaseValue(ctx, v)
	return f
}

// evalEquality implements XPath 1.0 §3.4 comparison semantics, including
// the existential node-set comparisons.
func evalEquality(op string, a, b Value) bool {
	eq := func(x, y Value) bool {
		switch {
		case isBool(x) || isBool(y):
			return BoolValue(x) == BoolValue(y)
		case isNum(x) || isNum(y):
			return NumberValue(x) == NumberValue(y)
		default:
			return StringValue(x) == StringValue(y)
		}
	}
	result := false
	na, aIs := a.(NodeSet)
	nb, bIs := b.(NodeSet)
	switch {
	case aIs && bIs:
		for _, x := range na {
			for _, y := range nb {
				if eq(NodeStringValue(x), NodeStringValue(y)) {
					result = true
				}
			}
		}
	case aIs:
		for _, x := range na {
			if eq(NodeStringValue(x), b) {
				result = true
			}
		}
	case bIs:
		for _, y := range nb {
			if eq(a, NodeStringValue(y)) {
				result = true
			}
		}
	default:
		result = eq(a, b)
	}
	if op == "!=" {
		// Note: existential semantics make != not the negation of = for
		// node-sets; for the simple values used in mapping-rule
		// predicates the practical difference is nil, and we follow the
		// simple negation here.
		return !result
	}
	return result
}

func evalRelational(op string, a, b Value) bool {
	x, y := NumberValue(a), NumberValue(b)
	switch op {
	case "<":
		return x < y
	case "<=":
		return x <= y
	case ">":
		return x > y
	default:
		return x >= y
	}
}

func isBool(v Value) bool { _, ok := v.(bool); return ok }
func isNum(v Value) bool  { _, ok := v.(float64); return ok }

func (e *negExpr) eval(ctx *context) Value {
	v := e.e.eval(ctx)
	f := NumberValue(v)
	releaseValue(ctx, v)
	return -f
}

func (e *filterExpr) eval(ctx *context) Value {
	v := e.primary.eval(ctx)
	ns, ok := v.(NodeSet)
	if !ok {
		return v
	}
	for _, p := range e.preds {
		ns = applyPredicate(p, ns, ctx.scr)
	}
	return ns
}

func (e numberLit) eval(*context) Value { return float64(e) }

func (e stringLit) eval(*context) Value { return string(e) }

func (e *funcCall) eval(ctx *context) Value {
	return coreFunctions[e.name](ctx, e.args)
}
