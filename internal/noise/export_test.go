package noise

// WilsonStdErr exposes the early-stopping criterion to the external tests.
var WilsonStdErr = wilsonStdErr
