// Package scenarios embeds the starter pack corpus so the tests can run
// the declarative scenarios without depending on the working directory. cmd/scenario prefers the on-disk ./scenarios tree
// and falls back to this embedded copy.
package scenarios

import "embed"

// FS holds the embedded pack corpus.
//
//go:embed *.yaml
var FS embed.FS
