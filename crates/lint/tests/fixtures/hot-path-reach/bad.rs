// hot-path-alloc (workspace half): the default config roots include
// `DijkstraWorkspace::run`; an allocation two private hops below it must
// be reported with the chain from the root.
pub struct DijkstraWorkspace;

impl DijkstraWorkspace {
    pub fn run(&mut self) {
        relax();
    }
}

fn relax() {
    settle();
}

fn settle() {
    let scratch: Vec<u32> = Vec::new();
    drop(scratch);
}
