package rule

import (
	"fmt"
	"regexp"
	"strings"
)

// The paper's §7 identifies two limitations of pure-XPath locations and
// sketches the fix this file implements:
//
//	"Because XPath was chosen …, Retrozilla cannot extract only a part of
//	 a text node. … Extra information could be added to mapping rules to
//	 handle this kind of situation. Using regular expressions would allow
//	 to finely select the component values within a text node …"
//
// Rule therefore carries two optional post-location refinements:
//
//   - Pattern: a regular expression applied to each located value; the
//     first capture group (or the whole match) becomes the component
//     value. "108 min" with pattern `(\d+) min` extracts "108".
//   - Split: a separator that turns one located text node into several
//     component values ("the text node actually includes a
//     comma-separated list of values of a multivalued component").

// Refinement is the optional intra-text-node selection attached to a
// mapping rule.
type Refinement struct {
	// Pattern is a regular expression; the first capture group (or the
	// whole match when no group exists) is the extracted value. Applied
	// after whitespace normalization.
	Pattern string `json:"pattern,omitempty"`
	// Split is a literal separator splitting the located value into
	// multiple component values. Applied before Pattern; requires the
	// rule to be multivalued.
	Split string `json:"split,omitempty"`
}

// compiledRefinement caches the compiled pattern.
type compiledRefinement struct {
	re    *regexp.Regexp
	split string
}

// Compile validates the refinement.
func (rf *Refinement) compile(ruleName string, mult Multiplicity) (*compiledRefinement, error) {
	if rf == nil || (rf.Pattern == "" && rf.Split == "") {
		return nil, nil
	}
	out := &compiledRefinement{split: rf.Split}
	if rf.Split != "" && mult != Multivalued {
		return nil, fmt.Errorf("rule %s: split refinement requires a multivalued rule", ruleName)
	}
	if rf.Pattern != "" {
		re, err := regexp.Compile(rf.Pattern)
		if err != nil {
			return nil, fmt.Errorf("rule %s: bad pattern: %w", ruleName, err)
		}
		out.re = re
	}
	return out, nil
}

// ApplyRefinement transforms one located raw value into the final
// component value(s). A nil refinement passes the value through. Values
// that do not match the pattern are dropped (the located node was noise).
func (c *compiledRefinement) apply(raw string) []string {
	if c == nil {
		return []string{raw}
	}
	parts := []string{raw}
	if c.split != "" {
		parts = parts[:0]
		for _, p := range strings.Split(raw, c.split) {
			p = strings.TrimSpace(p)
			if p != "" {
				parts = append(parts, p)
			}
		}
	}
	if c.re == nil {
		return parts
	}
	var out []string
	for _, p := range parts {
		m := c.re.FindStringSubmatch(p)
		if m == nil {
			continue
		}
		if len(m) > 1 {
			out = append(out, m[1])
		} else {
			out = append(out, m[0])
		}
	}
	return out
}
