// CLI fixture: a well-formed `// oracle-*:` header over source that
// does not compile (the statement below lacks its semicolon).
//
// oracle-kernel: broken
// oracle-arg: buf f64 8
void broken(double* a) {
  #pragma omp target teams distribute parallel for
  for (long i = 0; i < 8; i++) { a[i] = 1.0 }
}
