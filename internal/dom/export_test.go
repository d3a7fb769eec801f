package dom

// FuzzSeeds exposes the FuzzParse seed corpus to the external golden test
// (package dom_test), which needs the corpus generator and so cannot live
// inside package dom.
var FuzzSeeds = fuzzSeeds
