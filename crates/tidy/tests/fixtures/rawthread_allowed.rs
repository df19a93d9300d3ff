pub fn run(work: impl Fn() + Sync) {
    // tidy:allow(raw-thread): fixture exercising the waiver path
    std::thread::scope(|scope| {
        scope.spawn(&work);
    });
}
