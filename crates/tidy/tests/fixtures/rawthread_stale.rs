pub fn run(work: impl Fn(usize) -> usize + Sync) -> Vec<usize> {
    // tidy:allow(raw-thread): the fan-out below is the sanctioned one
    obs::par::fan_out((0..4).collect(), 2, |_, i| work(i))
}
