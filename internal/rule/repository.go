package rule

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"

	"repro/internal/cluster"
	"repro/internal/textutil"
)

// StructureNode describes one node of the enhanced (aggregated) structure
// a user may record in the repository (§4): leaf nodes reference a
// component by rule name; inner nodes group components under a new
// element (the paper's example embeds comments and rating under
// users-opinion).
type StructureNode struct {
	// Name of the XML element this node produces.
	Name string `json:"name"`
	// Component, when non-empty, marks a leaf bound to the rule of that
	// name; Children must then be empty.
	Component string          `json:"component,omitempty"`
	Children  []StructureNode `json:"children,omitempty"`
}

// Repository records the validated mapping rules of one page cluster
// (§3.5) plus the optional enhanced structure used at extraction time.
type Repository struct {
	// Cluster is the page-cluster name; it becomes the XML root element.
	Cluster string `json:"cluster"`
	// PageElement names the per-page element (defaults to Cluster minus a
	// plural 's', e.g. imdb-movies → imdb-movie).
	PageElement string `json:"pageElement,omitempty"`
	Rules       []Rule `json:"rules"`
	// Structure, when non-nil, replaces the default flat component list
	// under each page element.
	Structure []StructureNode `json:"structure,omitempty"`
	// Signature, when non-nil, is the cluster-signature fingerprint of
	// the pages the rules were built from. A service that loads the
	// repository registers it with its page router, so unseen pages can
	// be classified to this repository without the caller naming it.
	// (JSON only; the XML interchange form predates routing and stays
	// stable for external consumers.)
	Signature *cluster.Signature `json:"signature,omitempty"`
}

// NewRepository creates an empty repository for the named cluster.
func NewRepository(cluster string) *Repository {
	return &Repository{Cluster: cluster}
}

// PageElementName returns the element name used for each page: the
// configured PageElement, or the cluster name with a trailing 's'
// stripped ("imdb-movies" → "imdb-movie"), or the cluster name itself.
func (repo *Repository) PageElementName() string {
	if repo.PageElement != "" {
		return repo.PageElement
	}
	name := repo.Cluster
	if len(name) > 1 && name[len(name)-1] == 's' {
		return name[:len(name)-1]
	}
	return name + "-page"
}

// Clone returns a deep copy of the repository: mutating the copy's rules,
// locations or structure never touches the original. Services use this to
// stage a candidate repaired repository while the original keeps serving.
func (repo *Repository) Clone() *Repository {
	out := &Repository{Cluster: repo.Cluster, PageElement: repo.PageElement}
	if repo.Rules != nil {
		out.Rules = make([]Rule, len(repo.Rules))
		for i, r := range repo.Rules {
			out.Rules[i] = *r.Clone()
		}
	}
	if repo.Structure != nil {
		out.Structure = cloneStructure(repo.Structure)
	}
	out.Signature = repo.Signature.Clone()
	return out
}

func cloneStructure(nodes []StructureNode) []StructureNode {
	out := make([]StructureNode, len(nodes))
	for i, n := range nodes {
		out[i] = n
		out[i].Children = cloneStructure(n.Children)
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// Record adds or replaces the rule for the rule's component, keeping one
// rule per component (the paper: "a page component can be mapped by
// exactly one mapping rule").
func (repo *Repository) Record(r Rule) error {
	if err := r.Validate(); err != nil {
		return err
	}
	for i := range repo.Rules {
		if repo.Rules[i].Name == r.Name {
			repo.Rules[i] = r
			return nil
		}
	}
	repo.Rules = append(repo.Rules, r)
	return nil
}

// Lookup returns the rule for a component name.
func (repo *Repository) Lookup(name string) (*Rule, bool) {
	for i := range repo.Rules {
		if repo.Rules[i].Name == name {
			return &repo.Rules[i], true
		}
	}
	return nil, false
}

// Remove deletes the rule for a component; it reports whether a rule was
// removed.
func (repo *Repository) Remove(name string) bool {
	for i := range repo.Rules {
		if repo.Rules[i].Name == name {
			repo.Rules = append(repo.Rules[:i], repo.Rules[i+1:]...)
			return true
		}
	}
	return false
}

// ComponentNames returns the recorded component names, sorted.
func (repo *Repository) ComponentNames() []string {
	names := make([]string, len(repo.Rules))
	for i, r := range repo.Rules {
		names[i] = r.Name
	}
	sort.Strings(names)
	return names
}

// SetStructure validates and installs an enhanced structure: every leaf
// must reference a recorded rule, every referenced rule at most once.
func (repo *Repository) SetStructure(nodes []StructureNode) error {
	seen := map[string]bool{}
	var walk func(n StructureNode) error
	walk = func(n StructureNode) error {
		if n.Component != "" {
			if len(n.Children) > 0 {
				return fmt.Errorf("rule: structure leaf %q has children", n.Name)
			}
			if _, ok := repo.Lookup(n.Component); !ok {
				return fmt.Errorf("rule: structure references unknown component %q", n.Component)
			}
			if seen[n.Component] {
				return fmt.Errorf("rule: structure references component %q twice", n.Component)
			}
			seen[n.Component] = true
			return nil
		}
		if err := ValidateName(n.Name); err != nil {
			return err
		}
		for _, c := range n.Children {
			if err := walk(c); err != nil {
				return err
			}
		}
		return nil
	}
	for _, n := range nodes {
		if err := walk(n); err != nil {
			return err
		}
	}
	repo.Structure = nodes
	return nil
}

// Validate checks the whole repository.
func (repo *Repository) Validate() error {
	if err := ValidateName(repo.Cluster); err != nil {
		return fmt.Errorf("rule: bad cluster name: %w", err)
	}
	seen := map[string]bool{}
	for i := range repo.Rules {
		if err := repo.Rules[i].Validate(); err != nil {
			return err
		}
		if seen[repo.Rules[i].Name] {
			return fmt.Errorf("rule: duplicate rule for component %q", repo.Rules[i].Name)
		}
		seen[repo.Rules[i].Name] = true
	}
	if repo.Structure != nil {
		// Re-run structure validation against current rules.
		s := repo.Structure
		repo.Structure = nil
		err := repo.SetStructure(s)
		if err != nil {
			return err
		}
	}
	return nil
}

// CompileAll compiles every rule, returning them keyed by component name.
func (repo *Repository) CompileAll() (map[string]*Compiled, error) {
	out := make(map[string]*Compiled, len(repo.Rules))
	for i := range repo.Rules {
		c, err := repo.Rules[i].Compile()
		if err != nil {
			return nil, err
		}
		out[repo.Rules[i].Name] = c
	}
	return out, nil
}

// AppendJSON appends json.Marshal(repo)'s bytes. encoding/json writes
// everything but the signature, which is most of a routed repository's
// bytes and takes Signature.AppendJSON's direct pass. sig, when not nil,
// must be repo.Signature.AppendJSON's output: a caller that also
// journals the signature on its own encodes it once.
func (repo *Repository) AppendJSON(dst, sig []byte) []byte {
	rest := *repo
	rest.Signature = nil
	// Strings and slices of them: Marshal cannot fail.
	b, _ := json.Marshal(&rest)
	if repo.Signature == nil {
		return append(dst, b...)
	}
	if sig == nil {
		sig = repo.Signature.AppendJSON(nil)
	}
	// The signature is the last field and cluster and rules are never
	// omitted, so it joins the object as one more member.
	dst = append(dst, b[:len(b)-1]...)
	dst = append(dst, `,"signature":`...)
	dst = append(dst, sig...)
	return append(dst, '}')
}

// Save writes the repository as indented JSON.
func (repo *Repository) Save(path string) error {
	if err := repo.Validate(); err != nil {
		return err
	}
	data, err := json.MarshalIndent(repo, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Parse decodes and validates a repository from its JSON serialization —
// the in-memory counterpart of Load, used by services that receive
// repositories over the wire rather than from disk. A signature in the
// canonical form decodes in its own direct pass (see parseCanonical);
// anything else goes to encoding/json whole, so the value or the error
// is always the one json.Unmarshal gives.
func Parse(data []byte) (*Repository, error) {
	repo := parseCanonical(data)
	if repo == nil {
		repo = new(Repository)
		if err := json.Unmarshal(data, repo); err != nil {
			return nil, fmt.Errorf("rule: parsing repository: %w", err)
		}
	}
	if err := repo.Validate(); err != nil {
		return nil, fmt.Errorf("rule: validating repository: %w", err)
	}
	return repo, nil
}

// parseCanonical decodes a repository object whose one "signature"
// member cluster.DecodeSignature reads. encoding/json then decodes the
// document with that member's value replaced by null, so it never scans
// the signature's bytes and decodes every other member as it always
// does. It returns nil when that route does not apply: no signature, a
// key that folds to "signature" without spelling it, a signature
// outside the canonical form or failing validation, malformed JSON.
func parseCanonical(data []byte) *Repository {
	var r textutil.JSONReader
	r.Reset(data)
	r.Byte('{')
	var sig *cluster.Signature
	start, end := 0, 0
	more := r.Peek() != '}'
	if !more {
		r.Byte('}')
	}
	for more && r.OK() {
		if r.IsKey("signature") {
			if sig != nil || r.Peek() != '{' {
				return nil
			}
			start = r.Pos()
			if sig = cluster.DecodeSignature(&r); sig == nil {
				return nil
			}
			end = r.Pos()
		} else {
			if strings.EqualFold(r.String(), "signature") {
				return nil
			}
			r.Byte(':')
			r.Skip()
		}
		more = r.Next('}')
	}
	r.End()
	if !r.OK() || sig == nil {
		return nil
	}
	rest := make([]byte, 0, len(data)-(end-start)+len("null"))
	rest = append(rest, data[:start]...)
	rest = append(rest, "null"...)
	rest = append(rest, data[end:]...)
	var repo Repository
	if json.Unmarshal(rest, &repo) != nil {
		return nil
	}
	repo.Signature = sig
	return &repo
}

// Load reads a repository saved by Save and validates it.
func Load(path string) (*Repository, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	repo, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("rule: %s: %w", path, err)
	}
	return repo, nil
}
