// Fixture for cross-package crashsafe facts: diskio.Dump carries a RawWrite
// fact, diskio.Atomic a Blessed one.
//
//cadyvet:persistence ensemble result files
package crashsafex

import "diskio"

func bad(dir string, b []byte) {
	_ = diskio.Dump(dir+"/state", b) // want "call to Dump performs a raw durable write outside the blessed helpers"
}

func good(dir string, b []byte) {
	_ = diskio.Atomic(dir, dir+"/state", b)
}

func scratch(dir string) {
	_ = diskio.Scratch(dir + "/tmp")
}
