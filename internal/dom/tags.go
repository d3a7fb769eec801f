package dom

import "strings"

// tagFlag is one tree-construction behaviour of an element.
type tagFlag uint8

const (
	tagVoid        tagFlag = 1 << iota // never has content, never opens a frame
	tagHead                            // belongs in HEAD until body content starts
	tagRaw                             // raw-text content: kept undecoded and unescaped
	tagPre                             // whitespace-only text inside is kept
	tagTable                           // scope boundary for table-scoped tags
	tagTableScoped                     // implied and explicit closes never cross a TABLE
	tagSkeleton                        // HTML/HEAD/BODY: synthesized, never inserted
)

// Tag is one element's entry in the tag table: the flags tree
// construction reads, a dense id so consumers index per-tag arrays instead
// of hashing names, and the closedBy relation as a bitmask so an implied
// end tag costs one AND per open element.
type Tag struct {
	Name     string // canonical upper-cased name; parsed elements use it as Data
	ID       int    // dense index into the table, 0..NumTags-1
	flags    tagFlag
	closers  string // start tags that implicitly close this one, space-separated
	closeBit int8   // this tag's bit in closedBy masks, -1 when it closes nothing
	closedBy uint64 // closeBits of closers
}

// is reports whether t has flag f; unknown tags (nil) have no flags.
func (t *Tag) is(f tagFlag) bool { return t != nil && t.flags&f != 0 }

// closes reports whether the start tag t implicitly closes an open cur.
func (t *Tag) closes(cur *Tag) bool {
	return t != nil && t.closeBit >= 0 && cur != nil && cur.closedBy&(1<<t.closeBit) != 0
}

// pClosers are the block-level start tags that close an open P.
const pClosers = "P DIV TABLE UL OL DL H1 H2 H3 H4 H5 H6 BLOCKQUOTE PRE FORM HR " +
	"SECTION ARTICLE ASIDE HEADER FOOTER NAV FIELDSET ADDRESS"

// cellClosers close an open table cell.
const cellClosers = "TD TH TR TBODY THEAD TFOOT"

// knownTags declares every known element once, sorted by name. Tags outside
// it (custom elements, typos) behave like flagless entries; the flagless
// standard elements are listed so real markup interns every tag with one
// probe. closers is the auto-closing browsers apply to lists and tables:
// an open TD is closed by a following TD, TH, TR, ….
var knownTags = [...]Tag{
	{Name: "A"}, {Name: "ABBR"}, {Name: "ADDRESS"}, {Name: "AREA", flags: tagVoid},
	{Name: "ARTICLE"}, {Name: "ASIDE"}, {Name: "AUDIO"}, {Name: "B"},
	{Name: "BASE", flags: tagVoid | tagHead}, {Name: "BDI"}, {Name: "BDO"},
	{Name: "BLOCKQUOTE"}, {Name: "BODY", flags: tagSkeleton}, {Name: "BR", flags: tagVoid},
	{Name: "BUTTON"}, {Name: "CANVAS"}, {Name: "CITE"}, {Name: "CODE"},
	{Name: "COL", flags: tagVoid},
	{Name: "COLGROUP", flags: tagTableScoped, closers: "TR TBODY THEAD TFOOT COL"},
	{Name: "DATA"}, {Name: "DATALIST"}, {Name: "DD", closers: "DT DD"}, {Name: "DEL"},
	{Name: "DETAILS"}, {Name: "DFN"}, {Name: "DIALOG"}, {Name: "DIV"},
	{Name: "DL"}, {Name: "DT", closers: "DT DD"}, {Name: "EM"}, {Name: "EMBED", flags: tagVoid},
	{Name: "FIELDSET"}, {Name: "FIGCAPTION"}, {Name: "FIGURE"}, {Name: "FONT"},
	{Name: "FOOTER"}, {Name: "FORM"}, {Name: "H1"}, {Name: "H2"}, {Name: "H3"},
	{Name: "H4"}, {Name: "H5"}, {Name: "H6"}, {Name: "HEAD", flags: tagSkeleton},
	{Name: "HEADER"}, {Name: "HGROUP"}, {Name: "HR", flags: tagVoid},
	{Name: "HTML", flags: tagSkeleton}, {Name: "I"}, {Name: "IFRAME"},
	{Name: "IMG", flags: tagVoid}, {Name: "INPUT", flags: tagVoid}, {Name: "INS"},
	{Name: "KBD"}, {Name: "LABEL"}, {Name: "LEGEND"}, {Name: "LI", closers: "LI"},
	{Name: "LINK", flags: tagVoid | tagHead}, {Name: "MAIN"}, {Name: "MAP"}, {Name: "MARK"},
	{Name: "META", flags: tagVoid | tagHead}, {Name: "METER"}, {Name: "NAV"},
	{Name: "NOSCRIPT"}, {Name: "OBJECT"}, {Name: "OL"},
	{Name: "OPTGROUP", closers: "OPTGROUP"}, {Name: "OPTION", closers: "OPTION OPTGROUP"},
	{Name: "OUTPUT"}, {Name: "P", closers: pClosers}, {Name: "PARAM", flags: tagVoid},
	{Name: "PICTURE"}, {Name: "PRE", flags: tagPre}, {Name: "PROGRESS"}, {Name: "Q"},
	{Name: "S"}, {Name: "SAMP"}, {Name: "SCRIPT", flags: tagRaw}, {Name: "SECTION"},
	{Name: "SELECT"}, {Name: "SLOT"}, {Name: "SMALL"}, {Name: "SOURCE", flags: tagVoid},
	{Name: "SPAN"}, {Name: "STRONG"}, {Name: "STYLE", flags: tagHead | tagRaw},
	{Name: "SUB"}, {Name: "SUMMARY"}, {Name: "SUP"}, {Name: "TABLE", flags: tagTable},
	{Name: "TBODY", flags: tagTableScoped, closers: "TBODY TFOOT"},
	{Name: "TD", flags: tagTableScoped, closers: cellClosers}, {Name: "TEMPLATE"},
	{Name: "TEXTAREA", flags: tagRaw}, {Name: "TFOOT", flags: tagTableScoped, closers: "TBODY"},
	{Name: "TH", flags: tagTableScoped, closers: cellClosers},
	{Name: "THEAD", flags: tagTableScoped, closers: "TBODY TFOOT"}, {Name: "TIME"},
	{Name: "TITLE", flags: tagHead | tagRaw},
	{Name: "TR", flags: tagTableScoped, closers: "TR TBODY THEAD TFOOT"},
	{Name: "TRACK", flags: tagVoid}, {Name: "U"}, {Name: "UL"}, {Name: "VAR"},
	{Name: "VIDEO"}, {Name: "WBR", flags: tagVoid}, {Name: "XMP", flags: tagRaw},
}

// NumTags sizes per-tag arrays indexed by Tag.ID.
const NumTags = len(knownTags)

// tagSlotBits sizes the open-addressed lookup table: ~110 tags in 4096
// slots resolve in about one probe, and unknown tags hit an empty slot
// just as fast. A slot holds a table index plus one (0 = empty).
const tagSlotBits = 12

var tagSlots = indexTags()

// indexTags assigns ids and closedBy bits and builds the lookup slots.
func indexTags() *[1 << tagSlotBits]uint8 {
	slots := new([1 << tagSlotBits]uint8)
	for i := range knownTags {
		t := &knownTags[i]
		t.ID, t.closeBit = i, -1
		j := tagHash(t.Name)
		for slots[j] != 0 {
			j = (j + 1) & (1<<tagSlotBits - 1)
		}
		slots[j] = uint8(i + 1)
	}
	byName := func(name string) *Tag {
		for i := range knownTags {
			if knownTags[i].Name == name {
				return &knownTags[i]
			}
		}
		panic("dom: closer " + name + " missing from the tag table")
	}
	bit := int8(0)
	for i := range knownTags {
		for _, name := range strings.Fields(knownTags[i].closers) {
			c := byName(name)
			if c.closeBit < 0 {
				c.closeBit, bit = bit, bit+1
			}
			knownTags[i].closedBy |= 1 << c.closeBit
		}
	}
	if bit > 64 {
		panic("dom: closers outgrew the 64-bit closedBy mask")
	}
	return slots
}

func tagHash[T string | []byte](name T) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(name); i++ {
		h = (h ^ uint32(name[i])) * 16777619
	}
	return h & (1<<tagSlotBits - 1)
}

// LookupTag returns the table entry for an upper-cased tag name, nil for
// tags outside the table. It allocates nothing.
func LookupTag[T string | []byte](name T) *Tag {
	for i := tagHash(name); ; i = (i + 1) & (1<<tagSlotBits - 1) {
		s := tagSlots[i]
		if s == 0 {
			return nil
		}
		if t := &knownTags[s-1]; t.Name == string(name) {
			return t
		}
	}
}
