// Command cadyvet is the module's static-analysis vet tool. It speaks the
// cmd/go vet tool protocol, so it runs as
//
//	go build -o bin/cadyvet ./cmd/cadyvet
//	go vet -vettool=bin/cadyvet ./...
//
// and checks the whole module (with per-package caching and cross-package
// facts provided by the go command). `cadyvet -list` prints the enabled
// analyzers. See internal/analysis for the suite — commsym, detorder,
// guardedby, crashsafe and goleak's timer rules — and the //cadyvet:*
// annotation vocabulary.
package main

import "cadycore/internal/analysis"

func main() { analysis.Main() }
