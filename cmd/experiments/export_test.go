package main

// Main is the command's main, which its tests run their own binary as.
var Main = main
