// Fixture: a bool status silently dropped at statement position is R21 —
// as a bare statement or as the whole body of an unbraced if/else/for/
// while; an explicit `(void)` cast and a checked negation both count as
// handling the result.

namespace fix {

bool try_reserve_slot() { return true; }

void caller() {
  try_reserve_slot();  // violation: bare statement
  (void)try_reserve_slot();
  if (!try_reserve_slot()) {
    return;
  }
}

void unbraced(bool flag) {
  if (flag) try_reserve_slot();  // violation: if body
  else try_reserve_slot();  // violation: else body
  for (int i = 0; i < 2; ++i) try_reserve_slot();  // violation: for body
  while (flag) try_reserve_slot();  // violation: while body
  if (flag) (void)try_reserve_slot();
  if (flag && try_reserve_slot()) return;
}

}  // namespace fix
