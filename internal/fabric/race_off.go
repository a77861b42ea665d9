//go:build !race

package fabric

// raceBuild reports whether this binary was built with the race detector —
// the build where debug aids (delivery-buffer poisoning) default on.
const raceBuild = false
