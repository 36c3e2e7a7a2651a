// CLI fixture: valid source without an oracle spec header, so `verify`
// and `sanitize` have no kernel, geometry or arguments to launch with.
void plain(double* a, long n) {
  #pragma omp target teams distribute parallel for
  for (long i = 0; i < n; i++) { a[i] = (double)i; }
}
