// Fixture: a sanctioned exception — a provenance stamp is a deliberate
// wall-clock read (it records WHEN a file was produced and nothing is ever
// selected on it), suppressed via the rule's named pragma.
#include <ctime>

long ProvenanceStamp() {
  return time(nullptr);  // desalign-lint: allow(wall-clock) provenance stamp
}
