//! Golden fixture: panic-freedom violations.

pub fn head(v: &[u8]) -> u8 {
    v[0]
}

pub fn must(v: Option<u8>) -> u8 {
    v.unwrap()
}

pub fn must_msg(v: Option<u8>) -> u8 {
    v.expect("present")
}

/// A lifetime before a slice type is not an index expression.
pub struct View<'a> {
    pub bytes: &'a [u8],
}

#[cfg(test)]
mod tests {
    pub fn fine(v: Option<u8>) -> u8 {
        v.unwrap()
    }
}
