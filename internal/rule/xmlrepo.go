package rule

import (
	"encoding/xml"
	"fmt"
	"os"
	"strings"
)

// XML persistence for rule repositories. The paper's repository is read
// by "external agents, for instance by the XML extractor" (§3.5); an XML
// encoding makes the recorded rules consumable outside this codebase and
// mirrors how the original Java extraction application would have read
// them. JSON (repository.go) remains the default for tooling; both
// encodings are interchangeable and round-trip tested.

// xmlRepository is the XML document shape.
type xmlRepository struct {
	XMLName     xml.Name           `xml:"rule-repository"`
	Cluster     string             `xml:"cluster,attr"`
	PageElement string             `xml:"page-element,attr,omitempty"`
	Rules       []xmlRule          `xml:"mapping-rule"`
	Structure   []xmlStructureNode `xml:"structure>node,omitempty"`
}

type xmlRule struct {
	Name         string         `xml:"name"`
	Optionality  string         `xml:"optionality"`
	Multiplicity string         `xml:"multiplicity"`
	Format       string         `xml:"format"`
	Locations    []string       `xml:"location"`
	Refine       *xmlRefinement `xml:"refine,omitempty"`
}

type xmlRefinement struct {
	Pattern string `xml:"pattern,omitempty"`
	Split   string `xml:"split,omitempty"`
}

type xmlStructureNode struct {
	Name      string             `xml:"name,attr"`
	Component string             `xml:"component,attr,omitempty"`
	Children  []xmlStructureNode `xml:"node,omitempty"`
}

// EncodeXML renders the repository as an XML document.
func (repo *Repository) EncodeXML() ([]byte, error) {
	if err := repo.Validate(); err != nil {
		return nil, err
	}
	doc := xmlRepository{
		Cluster:     repo.Cluster,
		PageElement: repo.PageElement,
	}
	for _, r := range repo.Rules {
		xr := xmlRule{
			Name:         r.Name,
			Optionality:  string(r.Optionality),
			Multiplicity: string(r.Multiplicity),
			Format:       string(r.Format),
			Locations:    r.Locations,
		}
		if r.Refine != nil && (r.Refine.Pattern != "" || r.Refine.Split != "") {
			xr.Refine = &xmlRefinement{Pattern: r.Refine.Pattern, Split: r.Refine.Split}
		}
		doc.Rules = append(doc.Rules, xr)
	}
	doc.Structure = toXMLStructure(repo.Structure)
	data, err := xml.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append([]byte(xml.Header), append(data, '\n')...), nil
}

func toXMLStructure(nodes []StructureNode) []xmlStructureNode {
	var out []xmlStructureNode
	for _, n := range nodes {
		out = append(out, xmlStructureNode{
			Name:      n.Name,
			Component: n.Component,
			Children:  toXMLStructure(n.Children),
		})
	}
	return out
}

// UnmarshalRepositoryXML parses an XML repository document and validates
// it.
func UnmarshalRepositoryXML(data []byte) (*Repository, error) {
	var doc xmlRepository
	if err := xml.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("rule: parsing XML repository: %w", err)
	}
	repo := &Repository{Cluster: doc.Cluster, PageElement: doc.PageElement}
	for _, xr := range doc.Rules {
		r := Rule{
			Name:         xr.Name,
			Optionality:  Optionality(xr.Optionality),
			Multiplicity: Multiplicity(xr.Multiplicity),
			Format:       Format(xr.Format),
			Locations:    xr.Locations,
		}
		if xr.Refine != nil {
			r.Refine = &Refinement{Pattern: xr.Refine.Pattern, Split: xr.Refine.Split}
		}
		repo.Rules = append(repo.Rules, r)
	}
	repo.Structure = fromXMLStructure(doc.Structure)
	if err := repo.Validate(); err != nil {
		return nil, err
	}
	return repo, nil
}

func fromXMLStructure(nodes []xmlStructureNode) []StructureNode {
	var out []StructureNode
	for _, n := range nodes {
		out = append(out, StructureNode{
			Name:      n.Name,
			Component: n.Component,
			Children:  fromXMLStructure(n.Children),
		})
	}
	return out
}

// SaveXML writes the repository as XML.
func (repo *Repository) SaveXML(path string) error {
	data, err := repo.EncodeXML()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// LoadXML reads a repository saved by SaveXML.
func LoadXML(path string) (*Repository, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	repo, err := UnmarshalRepositoryXML(data)
	if err != nil {
		return nil, fmt.Errorf("rule: %s: %w", path, err)
	}
	return repo, nil
}

// LoadFile reads a repository file in either interchange form: a path
// ending in ".xml" is read by LoadXML, any other by Load (JSON).
func LoadFile(path string) (*Repository, error) {
	if strings.HasSuffix(path, ".xml") {
		return LoadXML(path)
	}
	return Load(path)
}
