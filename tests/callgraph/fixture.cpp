// Synthetic source for the lehdc_callgraph self-tests. This file is NOT
// compiled — tests/callgraph/fixture_facts.json references it by line so
// the checker's inline-suppression lookup has real text to read. Keep the
// line numbers stable or update the facts file.
//
// Line 10 below carries a live alloc violation (no suppression).
// Line 14 carries a throw that IS suppressed by the comment on line 13.

void counter_add_body() {
  do_alloc();  // line 10: operator new reachable from Counter::add

void predict_blocked_body() {
  // lehdc-callgraph: allow(throw)
  do_throw();  // line 14: suppressed by the allow(throw) comment above

void micro_batcher_grow() {
  take_lock();  // line 17: transitive lock reachable from MicroBatcher::offer
