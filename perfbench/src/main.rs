//! The untraced benchmark: end-to-end metrics, system allocator.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(perfbench::main_with(&args, false));
}
