module cadycore/benchmark

go 1.22

require cadycore v0.0.0

replace cadycore => ../
