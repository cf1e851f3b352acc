//! The traced benchmark: per-layer metrics, with every allocation
//! counted.

#[global_allocator]
static ALLOC: perfbench::alloc::CountingAlloc = perfbench::alloc::CountingAlloc;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(perfbench::main_with(&args, true));
}
