//! Fixture: a library crate root violating D1, D2, D3, D4, and D6.
//! Never compiled — only lexed by the analyzer's end-to-end tests.

use std::collections::HashMap;
use std::time::Instant;

pub fn demo() -> u64 {
    let mut m: HashMap<u32, u32> = HashMap::new();
    m.insert(1, 2);
    let _t = Instant::now();
    let _rng = rand::thread_rng();
    let home = std::env::var("HOME").unwrap();
    if home.is_empty() {
        panic!("no home");
    }
    match m.len() {
        0 => unreachable!("inserted above"),
        1 => m.len() as u64,
        2 => todo!(),
        _ => unimplemented!("more than two entries"),
    }
}
