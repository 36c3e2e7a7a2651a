// Two generic-mode kernels whose parallel regions meet in one module:
// `ka` reaches the region inside `helper`, `kb` reaches its own region
// and `helper`'s. Under the custom state machine each region's
// `parallel_51` token becomes a small integer id; the ids must be unique
// across the module, or `kb` dispatches the wrong region.
//
// Closed forms over a zeroed buffer, for i < nb * nt:
//   ka: out[i] = 101.0          kb: out[i] = 108.0
void helper(double* out, long base, long nt) {
  double w[2]; w[0] = 100.0; w[1] = 1.0;
  #pragma omp parallel for
  for (long t = 0; t < nt; t++) { out[base + t] = out[base + t] + w[0] + w[1]; }
}
void ka(double* out, long nb, long nt) {
  #pragma omp target teams distribute
  for (long b = 0; b < nb; b++) { helper(out, b * nt, nt); }
}
void kb(double* out, long nb, long nt) {
  #pragma omp target teams distribute
  for (long b = 0; b < nb; b++) {
    double v[2]; v[0] = 7.0; v[1] = 0.0;
    #pragma omp parallel for
    for (long t = 0; t < nt; t++) { out[b * nt + t] = v[0] + v[1]; }
    helper(out, b * nt, nt);
  }
}
