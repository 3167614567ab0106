// Package live is matched by exact and prefix patterns alike.
package live
