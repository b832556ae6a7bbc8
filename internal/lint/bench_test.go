package lint

import "testing"

// BenchmarkLoadCheckRepo measures one econlint run over the whole
// module: pattern expansion, parse, type-check (the standard library
// included, from source) and the full analyzer suite, followed by the
// suppression audit. Each iteration builds a fresh Loader so nothing is
// served from the package cache.
func BenchmarkLoadCheckRepo(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		loader, err := NewLoader(".")
		if err != nil {
			b.Fatal(err)
		}
		pkgs, err := loader.Load(loader.Root() + "/...")
		if err != nil {
			b.Fatal(err)
		}
		Check(pkgs, All())
		AuditSuppressions(pkgs, All())
	}
}
