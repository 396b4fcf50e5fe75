//! Golden fixture: calls every public fixture function but `orphan`, so
//! C008 flags exactly that one. Scanned by `tests/fixtures.rs`, never
//! compiled.

fn callers(queue: &Mutex<Vec<u8>>, results: &Mutex<Vec<u8>>, p: *const u8) {
    app::emit();
    app::traced();
    app::hot::drain(queue, results);
    app::hot::ordered(queue, results);
    nodeny::peek(p);
    nodeny::peek_justified(p);
}
