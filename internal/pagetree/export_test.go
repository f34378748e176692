package pagetree

// The layouts import this package, so the tests that run over all of
// them live in package pagetree_test; they share the -update flag.
var Update = update
