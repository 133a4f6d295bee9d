// Fixture for directive hygiene: unknown directive words and waivers without
// a written justification are themselves findings.
package directives

func bad(n int) int {
	//cadyvet:frobnicate typo of a real directive
	// want-above "unknown cadyvet directive"
	return n + 1
}

func lazy(buf *[]float64, n int) {
	//cadyvet:allow
	// want-above "requires a written justification"
	*buf = make([]float64, n)
}

type anonGuard struct {
	flag bool //cadyvet:guardedby
	// want-above "cadyvet:guardedby directive requires the guard .mutex. name"
}

func bareWaiver(path string) string {
	//cadyvet:volatile
	// want-above "requires a written justification"
	return path
}
