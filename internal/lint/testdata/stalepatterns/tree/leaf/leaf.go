// Package leaf gives the "tree/..." prefix a package; "tree" itself has none.
package leaf
