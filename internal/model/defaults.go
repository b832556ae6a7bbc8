package model

// DefaultIfZero returns def when v is exactly zero — the conventional
// "field left unset" sentinel in Config structs throughout the repo —
// and v unchanged otherwise. Centralizing the sentinel test keeps the
// one intentionally-exact float comparison in a single audited place
// (econlint's floateq analyzer flags ad-hoc ones).
func DefaultIfZero(v, def float64) float64 {
	if v == 0 { //lint:allow floateq zero is the explicit unset sentinel, not a computed value
		return def
	}
	return v
}
