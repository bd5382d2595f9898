package obs

// Catalog hands the external tests the list of Ev* constants.
var Catalog = catalog
